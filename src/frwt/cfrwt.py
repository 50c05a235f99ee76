"""Chirped wavelet coefficient transform, its energy identities,
reconstruction, and the reproducing kernel.

Coefficients are inner products of the signal against daughters over a
(scale vector, shift) grid.  Two evaluation routes exist: a direct route
building per-scale profile matrices (the quadratic-cost oracle, usable
with any shift grid) and a fast route that realizes the same discrete
sums through padded FFT correlations when the shift grid equals the
signal grid.  Both routes share the quadrature weights, so they agree to
rounding, not merely to discretization order.  The fast route's tap
spectra depend only on the wavelet, the grid and the scales, so a small
memo keeps the recent ones for a stream of signals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .admissibility import (
    AdmissibilityReport,
    FrequencyScan,
    _spectral_points,
    _weighted_profile,
    admissibility_constant,
    cross_admissibility,
    fractional_spectrum,
)
from .errors import DomainMismatch, GridMismatch, InadmissibleWavelet, ZeroCrossAdmissibility
from .frft import TransformOrder, _as_order, _next_fast_len, c_alpha, frft_fast
from .grid import Grid, SampledSignal, grids_close, inner_product, l2_norm
from .report import VerificationReport
from .scales import ScaleGrid
from .wavelets import DaughterParams, WaveletSpec, make_daughter

__all__ = [
    "CfrwtCoefficients",
    "ReproducingKernelPoint",
    "cfrwt_direct",
    "cfrwt_fast",
    "plancherel_check",
    "inner_product_relation_check",
    "reconstruct",
    "reproducing_kernel",
    "kernel_projection",
    "range_membership_residual",
    "truncated_coverage",
]

CROSS_ZERO_TOL = 1e-8

# Padded complex work per chunk of scale vectors in the fast routes; bounds
# their memory, since a 2-D scale grid with both signs has (2M)^2 vectors.
_CHUNK_BYTES = 1 << 20
# chunks of tap spectra kept (each at most _CHUNK_BYTES)
_TAP_CACHE_SIZE = 8


@dataclass(frozen=True)
class CfrwtCoefficients:
    """Coefficient array over a scale grid and a shift grid.

    values[s] holds the coefficients of scale vector s over the shift
    grid, so values has shape (scale count,) + b_grid.shape.
    """

    values: np.ndarray
    b_grid: Grid
    scales: ScaleGrid
    order: TransformOrder
    wavelet: str

    def __post_init__(self) -> None:
        expected = (self.scales.count,) + self.b_grid.shape
        if self.values.shape != expected:
            raise ValueError(f"coefficient shape {self.values.shape} != {expected}")
        if self.b_grid.ndim != self.scales.ndim:
            raise ValueError("shift grid and scale grid dimensions differ")

    def measure_weights(self) -> np.ndarray:
        """Per-(scale, shift) weights realizing the measure db da/|a|_p^2."""
        w_a = self.scales.measure_weights()
        w_b = self.b_grid.weights()
        return w_a.reshape((-1,) + (1,) * self.b_grid.ndim) * w_b

    def shift_energies(self) -> np.ndarray:
        """Per-scale shift-integrated energies, no scale measure applied."""
        w_b = self.b_grid.weights()
        flat = (np.abs(self.values) ** 2 * w_b).reshape(self.scales.count, -1)
        return flat.sum(axis=1)

    def energy(self) -> float:
        """Total coefficient energy under the measure db da/|a|_p^2."""
        return float(math.fsum(self.scales.measure_weights() * self.shift_energies()))

    def last_octave_fraction(self) -> float:
        """Share of energy carried by scale vectors touching the top octave.

        The identities hold on the unbounded scale measure; this is the
        truncation honesty line reported by every integral check.
        """
        mags = np.abs(self.scales.vectors)
        outer = np.any(mags > self.scales.a_max / 2, axis=1)
        contrib = self.scales.measure_weights() * self.shift_energies()
        total = math.fsum(contrib)
        if total == 0.0:
            return 0.0
        return float(math.fsum(contrib[outer]) / total)


@dataclass(frozen=True)
class ReproducingKernelPoint:
    """One evaluation of the two-wavelet reproducing kernel."""

    p0: tuple[tuple[float, ...], tuple[float, ...]]
    p: tuple[tuple[float, ...], tuple[float, ...]]
    value: complex


def _require_generic_grid(f: SampledSignal, scales: ScaleGrid) -> None:
    if f.ndim != scales.ndim:
        raise ValueError("signal and scale grid dimensions differ")


def _chirped_input(f: SampledSignal, order: TransformOrder) -> np.ndarray:
    # quadrature weights and the +i/2 |t|^2 cot chirp of the conjugated
    # daughter are folded in once, shared by both evaluation routes
    return f.values * f.grid.weights() * np.exp(0.5j * order.cot * f.grid.radius_sq())


def _shift_phase(b_grid: Grid, order: TransformOrder) -> np.ndarray:
    return np.exp(-0.5j * order.cot * b_grid.radius_sq())


def cfrwt_direct(
    f: SampledSignal,
    psi: WaveletSpec,
    order: TransformOrder | float,
    scales: ScaleGrid,
    b_grid: Grid | None = None,
) -> CfrwtCoefficients:
    """Coefficients by explicit per-scale inner products.

    Cost is quadratic in grid size per scale; this is the oracle route
    and works with any shift grid.
    """
    order = _as_order(order)
    _require_generic_grid(f, scales)
    b_grid = b_grid or f.grid
    chi = _chirped_input(f, order)
    t_axes = f.grid.axis_points()
    b_axes = b_grid.axis_points()
    out = np.empty((scales.count,) + b_grid.shape, dtype=np.complex128)
    for s, a_vec in enumerate(scales.vectors):
        acc = chi
        for ax, (t_pts, b_pts, a_i) in enumerate(zip(t_axes, b_axes, a_vec)):
            # mat[k, j] = conj(psi((t_j - b_k) / a_i)); contract the t_j axis
            mat = np.conj(psi.profile((t_pts[None, :] - b_pts[:, None]) / a_i))
            acc = np.moveaxis(np.tensordot(mat, acc, axes=([1], [ax])), 0, ax)
        out[s] = acc / math.sqrt(np.prod(np.abs(a_vec)))
    out *= _shift_phase(b_grid, order)
    return CfrwtCoefficients(out, b_grid, scales, order, psi.name)


def _lag_correlate(values: np.ndarray, tap_fft: np.ndarray, axis: int) -> np.ndarray:
    """Lag sums out[s, .., k, ..] = sum_j values[s, .., j, ..] taps[s, k - j + n - 1]
    along grid axis `axis` of a scale-batched array.

    values carries a leading scale axis (length one broadcasts against
    every scale); tap_fft is the (scales, pad) FFT of taps over lags
    -(n - 1)..n - 1.  Any FFT length pad >= 2n - 1 leaves the central n
    sums unaliased.
    """
    axis += 1
    n = values.shape[axis]
    shape = [1] * values.ndim
    shape[0], shape[axis] = tap_fft.shape
    spec = np.fft.fft(values, n=tap_fft.shape[1], axis=axis) * tap_fft.reshape(shape)
    # in place: a fresh output per call would page-fault its whole size
    full = np.fft.ifft(spec, axis=axis, out=spec)
    sl = [slice(None)] * values.ndim
    sl[axis] = slice(n - 1, 2 * n - 1)
    return full[tuple(sl)]


@functools.lru_cache(maxsize=_TAP_CACHE_SIZE)
def _tap_spectrum(psi: WaveletSpec, analysis: bool, step: float, n: int, a_col: bytes) -> np.ndarray:
    """Read-only FFT of one axis's lag taps, one row per scale component.

    Taps are psi(x) for synthesis and conj(psi(-x)) for analysis, at
    x = lag step / a over lags -(n - 1)..n - 1.  They depend on neither
    the signal nor the order, so a stream of signals on one grid and
    scale set computes them once.
    """
    lags = np.arange(-(n - 1), n) * step
    x = lags[None, :] / np.frombuffer(a_col)[:, None]
    # sum_j chi_j conj(psi((j - k) dt / a)) is a lag sum against conj(psi(-x))
    taps = np.conj(psi.profile(-x)) if analysis else psi.profile(x)
    out = np.fft.fft(taps, n=_next_fast_len(2 * n - 1), axis=1)
    out.flags.writeable = False
    return out


def _scale_chunks(grid: Grid, count: int) -> list[slice]:
    # the largest padded intermediate of one scale vector, in complex128 bytes
    per_scale = 16 * max(grid.size // ax.count * _next_fast_len(2 * ax.count - 1) for ax in grid.axes)
    step = max(1, _CHUNK_BYTES // per_scale)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _scale_correlate(values: np.ndarray, grid: Grid, a_block: np.ndarray, psi: WaveletSpec, analysis: bool) -> np.ndarray:
    """Lag sums against the taps of psi along every grid axis, one output
    slice per scale vector (row) of a_block."""
    for ax, (axis_spec, a_col) in enumerate(zip(grid.axes, a_block.T)):
        tap_fft = _tap_spectrum(psi, analysis, axis_spec.step, axis_spec.count, a_col.tobytes())
        values = _lag_correlate(values, tap_fft, ax)
    return values


def _scale_norms(vectors: np.ndarray) -> np.ndarray:
    return np.sqrt(np.prod(np.abs(vectors), axis=1))


def cfrwt_fast(
    f: SampledSignal,
    psi: WaveletSpec,
    order: TransformOrder | float,
    scales: ScaleGrid,
) -> CfrwtCoefficients:
    """Coefficients over the signal's own grid via FFT correlations.

    Realizes exactly the same discrete sums as cfrwt_direct with
    b_grid = f.grid, at O(N log N) per scale, for any sample counts.
    """
    order = _as_order(order)
    _require_generic_grid(f, scales)
    chi = _chirped_input(f, order)[None]
    expand = (-1,) + (1,) * f.ndim
    norms = _scale_norms(scales.vectors).reshape(expand)
    out = np.empty((scales.count,) + f.grid.shape, dtype=np.complex128)
    for chunk in _scale_chunks(f.grid, scales.count):
        out[chunk] = _scale_correlate(chi, f.grid, scales.vectors[chunk], psi, True) / norms[chunk]
    out *= _shift_phase(f.grid, order)
    return CfrwtCoefficients(out, f.grid, scales, order, psi.name)


def _admissibility_for(
    psi: WaveletSpec,
    order: TransformOrder,
    ndim: int,
    scan: FrequencyScan | None,
    phi: WaveletSpec | None = None,
) -> AdmissibilityReport:
    if phi is None or phi is psi:
        report = admissibility_constant(psi, order, scan=scan, ndim=ndim)
    else:
        report = cross_admissibility(phi, psi, order, scan=scan, ndim=ndim)
    if report.verdict == "divergent":
        raise InadmissibleWavelet(
            f"{report.cross_wavelet or report.wavelet}/{report.wavelet} admissibility integral diverges at order {order.alpha}"
        )
    return report


def _uniform_step(xi: np.ndarray) -> float | None:
    """Step of a 1-D grid uniform to a few ulps, else None."""
    if xi.ndim != 1 or xi.size < 2:
        return None
    step = (xi[-1] - xi[0]) / (xi.size - 1)
    drift = np.max(np.abs(xi - (xi[0] + step * np.arange(xi.size))))
    if step == 0.0 or drift > 64 * np.finfo(np.float64).eps * np.max(np.abs(xi)):
        return None
    return float(step)


def _spectrum_power_chirp_z(
    psi: WaveletSpec, order: TransformOrder, a: np.ndarray, xi: np.ndarray, step: float
) -> np.ndarray:
    """|Psi_alpha(a_s xi_k)|^2 for a uniform xi, one Bluestein chirp-z per scale.

    With centred indices t_j = j' dt and xi_k = xi_c + k' step, the Fourier
    sum of the weighted profile x at v = s xi_k (s = a csc) is, up to a
    unit-modulus factor in k,

        sum_j x_j e^{-i s xi_c dt j'} e^{-i theta j' k'},   theta = s step dt,

    and j' k' = (j'^2 + k'^2 - (k' - j')^2) / 2 turns it into a linear
    convolution with the chirp e^{i theta (k' - j')^2 / 2}, done by FFT.
    """
    csc = order.csc
    m = xi.size
    v_max = float(np.max(np.abs(a))) * float(np.max(np.abs(xi))) * abs(csc)
    t, x = _weighted_profile(psi, _spectral_points(psi, v_max))
    n = t.size
    dt = t[1] - t[0]
    j = np.arange(n) - (n - 1) / 2
    xi_c = (xi[0] + xi[-1]) / 2
    size = _next_fast_len(n + m - 1)
    # lags k - j over one FFT period; k' - j' = lag - (kc - jc)
    lags = np.arange(size)
    lags = np.where(lags < m, lags, lags - size) - ((m - 1) - (n - 1)) / 2
    out = np.empty((a.size, m))
    rows = max(1, _CHUNK_BYTES // (16 * size))
    for lo in range(0, a.size, rows):
        s = a[lo : lo + rows, None] * csc
        theta = s * step * dt
        z = x * np.exp(-1j * (s * xi_c * dt * j + 0.5 * theta * j**2))
        h = np.exp(0.5j * theta * lags**2)
        spec = np.fft.fft(z, n=size, axis=1) * np.fft.fft(h, axis=1)
        out[lo : lo + rows] = np.abs(np.fft.ifft(spec, axis=1, out=spec)[:, :m]) ** 2
    return out * abs(c_alpha(order, 1)) ** 2


def truncated_coverage(
    psi: WaveletSpec,
    order: TransformOrder | float,
    scales: ScaleGrid,
    xi: np.ndarray,
) -> np.ndarray:
    """Scale-truncated admissibility weight at 1-D frequencies xi.

    Integrates |Psi_alpha(a xi)|^2 over the scale grid against da/|a|;
    on the full measure this would equal the admissibility constant for
    every xi.  The shortfall predicts how far the Plancherel ratio sits
    below one on a finite scale range.

    Each scale's frequency set a xi of a uniform xi grid is uniform too,
    so |Psi_alpha|^2 comes from one chirp-z transform per scale (Rabiner,
    Schafer & Rader 1969) on the same profile grid fractional_spectrum
    would use; any other xi goes through fractional_spectrum directly.
    """
    order = _as_order(order)
    if scales.ndim != 1:
        raise ValueError("coverage prediction is one dimensional")
    xi = np.asarray(xi, dtype=np.float64)
    a = scales.vectors.ravel()
    step = _uniform_step(xi)
    if step is None:
        power = np.abs(fractional_spectrum(psi, order, a[:, None] * xi[None, :])) ** 2
    else:
        power = _spectrum_power_chirp_z(psi, order, a, xi, step)
    return np.tensordot(scales.log_measure_weights(), power, axes=1)


def plancherel_check(
    coeffs: CfrwtCoefficients,
    f: SampledSignal,
    psi: WaveletSpec,
    order: TransformOrder | float | None = None,
    scan: FrequencyScan | None = None,
    tolerance: float = 0.05,
) -> VerificationReport:
    """Coefficient energy against the admissibility-scaled signal energy.

    The reported ratio tends to one from below as the scale range widens;
    details carry the top-octave share and, in one dimension, the ratio
    predicted by the scale-truncated coverage of the signal's spectrum.
    """
    order = _as_order(order) if order is not None else coeffs.order
    if not grids_close(coeffs.b_grid, f.grid):
        raise GridMismatch("coefficients were not taken over the signal's grid")
    adm = _admissibility_for(psi, order, f.ndim, scan)
    energy = coeffs.energy()
    lhs = energy * abs(c_alpha(order, f.ndim)) ** 2
    rhs = adm.value.real * l2_norm(f) ** 2
    ratio = lhs / rhs
    details: dict = {
        "admissibility": adm.value.real,
        "coefficient_energy": energy,
        "last_octave_fraction": coeffs.last_octave_fraction(),
    }
    if f.ndim == 1:
        spectrum = frft_fast(f, order)
        xi = spectrum.grid.axis_points()[0]
        coverage = truncated_coverage(psi, order, coeffs.scales, xi)
        weighted = spectrum.grid.weights() * np.abs(spectrum.values) ** 2
        details["predicted_ratio"] = float(
            np.sum(weighted * coverage) / (adm.value.real * np.sum(weighted))
        )
    passed = abs(ratio - 1.0) <= tolerance
    return VerificationReport("plancherel_ratio", lhs, rhs, ratio, tolerance, passed, details)


def inner_product_relation_check(
    f: SampledSignal,
    g: SampledSignal,
    phi: WaveletSpec,
    psi: WaveletSpec,
    order: TransformOrder | float,
    scales: ScaleGrid,
    scan: FrequencyScan | None = None,
    tolerance: float = 0.07,
) -> VerificationReport:
    """Two-wavelet coefficient pairing against the signal inner product.

    Both sides scale like the product of signal norms; the deviation is
    normalized by the moduli admissibility bound at that scale.
    """
    order = _as_order(order)
    if not grids_close(f.grid, g.grid):
        raise GridMismatch("signals live on different grids")
    cross = _admissibility_for(psi, order, f.ndim, scan, phi=phi)
    wf = cfrwt_fast(f, phi, order, scales)
    wg = cfrwt_fast(g, psi, order, scales)
    pairing = wf.measure_weights() * wf.values * np.conj(wg.values)
    lhs = complex(math.fsum(pairing.real.ravel()), math.fsum(pairing.imag.ravel()))
    mod = abs(c_alpha(order, f.ndim)) ** 2
    rhs = cross.value / mod * inner_product(f, g)
    scale = cross.moduli_value / mod * l2_norm(f) * l2_norm(g)
    deviation = abs(lhs - rhs) / scale if scale > 0 else math.inf
    details = {
        "cross_admissibility": cross.value,
        "normalization": scale,
        "last_octave_fraction": wf.last_octave_fraction(),
    }
    return VerificationReport(
        "inner_product_relation", lhs, rhs, deviation, tolerance, deviation <= tolerance, details
    )


def reconstruct(
    coeffs: CfrwtCoefficients,
    phi: WaveletSpec,
    psi_used: WaveletSpec,
    scan: FrequencyScan | None = None,
    cross_value: complex | None = None,
) -> SampledSignal:
    """Resynthesize a signal from its coefficients.

    phi is the synthesizing wavelet; psi_used must be the wavelet the
    coefficients were taken with.  The two-wavelet normalizer is their
    cross admissibility constant; it must be bounded away from zero.
    """
    order = coeffs.order
    ndim = coeffs.b_grid.ndim
    if psi_used.name != coeffs.wavelet:
        raise ValueError(
            f"coefficients were taken with {coeffs.wavelet!r}, not {psi_used.name!r}"
        )
    if cross_value is None:
        cross = _admissibility_for(psi_used, order, ndim, scan, phi=phi)
        cross_value = cross.value
    if abs(cross_value) < CROSS_ZERO_TOL:
        raise ZeroCrossAdmissibility(
            f"cross admissibility {abs(cross_value):.2e} below {CROSS_ZERO_TOL:.0e}; "
            "the pair cannot normalize a reconstruction"
        )
    grid = coeffs.b_grid
    vectors = coeffs.scales.vectors
    w_b = grid.weights()
    b_phase = np.exp(0.5j * order.cot * grid.radius_sq())
    factors = (coeffs.scales.measure_weights() / _scale_norms(vectors)).reshape((-1,) + (1,) * ndim)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for chunk in _scale_chunks(grid, coeffs.scales.count):
        block = _scale_correlate(coeffs.values[chunk] * w_b * b_phase, grid, vectors[chunk], phi, False)
        # scale-index order, so the sum does not depend on the chunking
        for piece in factors[chunk] * block:
            out += piece
    mod = abs(c_alpha(order, ndim)) ** 2
    out *= mod / cross_value * np.exp(-0.5j * order.cot * grid.radius_sq())
    return SampledSignal(grid, out)


def reproducing_kernel(
    phi: WaveletSpec,
    psi: WaveletSpec,
    order: TransformOrder | float,
    p0: tuple[tuple[float, ...], tuple[float, ...]],
    p: tuple[tuple[float, ...], tuple[float, ...]],
    grid: Grid,
    scan: FrequencyScan | None = None,
    cross_value: complex | None = None,
) -> ReproducingKernelPoint:
    """Point value of the two-wavelet reproducing kernel.

    p0 and p are (shift vector, scale vector) pairs; the kernel is the
    normalized inner product of the daughters they index, evaluated on
    the supplied quadrature grid.
    """
    order = _as_order(order)
    (b0, a0), (b, a) = p0, p
    ndim = grid.ndim
    if cross_value is None:
        cross = _admissibility_for(psi, order, ndim, scan, phi=phi)
        cross_value = cross.value
    if abs(cross_value) < CROSS_ZERO_TOL:
        raise ZeroCrossAdmissibility("cross admissibility too close to zero")
    d_phi = make_daughter(phi, DaughterParams(tuple(a), tuple(b), order), grid, tail_tol=None)
    d_psi = make_daughter(psi, DaughterParams(tuple(a0), tuple(b0), order), grid, tail_tol=None)
    mod = abs(c_alpha(order, ndim)) ** 2
    value = mod / cross_value * inner_product(d_phi, d_psi)
    return ReproducingKernelPoint((tuple(b0), tuple(a0)), (tuple(b), tuple(a)), value)


def kernel_projection(
    array: CfrwtCoefficients,
    phi: WaveletSpec,
    psi: WaveletSpec,
    p0: tuple[tuple[float, ...], tuple[float, ...]],
    scan: FrequencyScan | None = None,
    cross_value: complex | None = None,
) -> complex:
    """Apply the reproducing-kernel integral to a coefficient array at p0.

    For arrays in the transform's range this reproduces the array value
    at p0; for arbitrary arrays the defect measures distance from the
    range.
    """
    order = array.order
    ndim = array.b_grid.ndim
    if cross_value is None:
        cross_value = _admissibility_for(psi, order, ndim, scan, phi=phi).value
    if abs(cross_value) < CROSS_ZERO_TOL:
        raise ZeroCrossAdmissibility("cross admissibility too close to zero")
    b0, a0 = p0
    daughter0 = make_daughter(psi, DaughterParams(tuple(a0), tuple(b0), order), array.b_grid, tail_tol=None)
    # <phi_{a,b}, psi_{a0,b0}> over all (b, a) is one coefficient pass
    # of the p0 daughter treated as a signal
    inner = np.conj(cfrwt_fast(daughter0, phi, order, array.scales).values)
    mod = abs(c_alpha(order, ndim)) ** 2
    kernel_vals = mod / cross_value * inner
    total = array.measure_weights() * array.values * kernel_vals
    return complex(math.fsum(total.real.ravel()), math.fsum(total.imag.ravel()))


def range_membership_residual(
    array: CfrwtCoefficients,
    phi: WaveletSpec,
    psi: WaveletSpec,
    scan: FrequencyScan | None = None,
    cross_value: complex | None = None,
) -> float:
    """Relative defect of the reproducing-kernel projection on an array.

    Applying the kernel integral at every point amounts to resynthesizing
    a signal from the array and transforming it again.  Arrays that are
    genuine coefficient arrays come back nearly unchanged; arbitrary
    arrays lose everything outside the transform's range, leaving a large
    residual under the measure norm.
    """
    resynth = reconstruct(array, phi, psi, scan=scan, cross_value=cross_value)
    projected = cfrwt_fast(resynth, psi, array.order, array.scales)
    defect = CfrwtCoefficients(
        projected.values - array.values, array.b_grid, array.scales, array.order, array.wavelet
    )
    denom = array.energy()
    if denom == 0.0:
        return 0.0
    return math.sqrt(defect.energy() / denom)
