"""Admissibility constants for the chirped wavelet family.

The constant governing energy conservation of the coefficient transform
at order alpha is

    C(psi, alpha) = integral |Psi_alpha(u)|^2 / |u| du   over u != 0

where Psi_alpha is the order-alpha transform of the chirped profile
psi(t) exp(-i/2 t^2 cot(alpha)).  That chirp cancels the kernel's own
t-chirp, so

    Psi_alpha(u) = c(alpha) exp(i/2 u^2 cot(alpha)) sum_j w_j psi(t_j) exp(-i u csc(alpha) t_j)

is a trapezoidal Fourier sum of the bare profile on [-r, r], r the
support radius.  Its grid is sized from a Nyquist bound: with
v = max|u| |csc(alpha)| it has min(8192, max(256, 2 ceil(2 r v / pi) + 1))
points, a step of about pi / (2 v), so the first alias of the profile
spectrum sits near 3 v and the sum matches the 8192-point grid to
rounding.  The constant is integrated on a log-spaced frequency grid
whose lower cutoff is halved several times; the sequence of truncated
values decides between a finite constant and a divergence at the origin.
Both signs of u enter the integral.  For a real profile the Fourier sum
at -v is the conjugate of the sum at v and the chirp factor is even in
u, so the scan evaluates such a profile on the positive side only and
takes the negative side from it; a complex profile (morlet) is
evaluated on both sides.  Reports are memoized per (phi, psi, order,
scan, ndim); see admissibility_cache_info.

Everything here is one dimensional; for separable wavelets in n
dimensions the constant is the n-th power of the per-axis value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .frft import TransformOrder, _as_order, c_alpha
from .wavelets import _PROFILE_POINTS, WaveletSpec, _profile_quadrature

__all__ = [
    "FrequencyScan",
    "AdmissibilityReport",
    "fractional_spectrum",
    "admissibility_constant",
    "cross_admissibility",
    "admissibility_cache_info",
]

# verdict thresholds: an integral is treated as settled when the last two
# cutoff halvings each add under 1% of the total, and as divergent when
# the per-halving increments stay near constant (or grow) while still
# contributing more than 1%
_SETTLED_FRACTION = 1e-2
_STEADY_RATIO = 0.75

# fewest points of a spectral profile grid
_MIN_SPECTRAL_POINTS = 256
# kernel matrix bytes per chunk of frequencies in fractional_spectrum
_CHUNK_BYTES = 1 << 20
# distinct scans kept by the report memo
_CACHE_SIZE = 64


@dataclass(frozen=True)
class FrequencyScan:
    """Log-spaced frequency quadrature for the admissibility integrals.

    The integral is first taken over |u| in [u_min, u_max], then the
    lower cutoff is halved `halvings` times to probe the origin.
    """

    u_min: float = 1e-4
    u_max: float = 32.0
    points_per_decade: int = 256
    halvings: int = 6

    def __post_init__(self) -> None:
        if not (0.0 < self.u_min < self.u_max):
            raise ValueError("need 0 < u_min < u_max")
        if self.points_per_decade < 16 or self.halvings < 3:
            raise ValueError("scan resolution too coarse to support a verdict")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of one admissibility scan.

    value is the (possibly complex) constant over the deepest scanned
    range; moduli_value is the same integral with the integrand replaced
    by its modulus, which is what the convergence verdict is based on.
    trace lists (lower cutoff, moduli integral up to u_max) per halving.
    """

    wavelet: str
    cross_wavelet: str | None
    alpha: float
    ndim: int
    value: complex
    moduli_value: float
    verdict: str
    trace: tuple[tuple[float, float], ...]

    @property
    def admissible(self) -> bool:
        return self.verdict == "finite"


def _spectral_points(psi: WaveletSpec, v_max: float) -> int:
    """Profile grid size that resolves exp(-i v t) for |v| <= v_max on [-r, r]."""
    nyquist = 2 * math.ceil(2.0 * psi.support_radius * v_max / math.pi) + 1
    return min(_PROFILE_POINTS, max(_MIN_SPECTRAL_POINTS, nyquist))


def _weighted_profile(psi: WaveletSpec, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Profile nodes t_j on [-r, r] and trapezoid-weighted samples w_j psi(t_j)."""
    t, vals, dt = _profile_quadrature(psi, points)
    w = np.full(t.shape, dt)
    w[0] = w[-1] = dt / 2
    return t, w * vals


def fractional_spectrum(psi: WaveletSpec, order: TransformOrder | float, u: np.ndarray) -> np.ndarray:
    """Order-alpha kernel transform of the chirped profile at frequencies u.

    Computed as a direct quadrature of K_alpha(t, u) against
    psi(t) exp(-i/2 t^2 cot(alpha)); the two t-chirps cancel, leaving a
    Fourier sum of the profile on a Nyquist-sized grid.
    """
    order = _as_order(order)
    cot, csc = order.cot, order.csc
    u = np.asarray(u, dtype=np.float64)
    flat = u.reshape(-1)
    v_max = abs(csc) * float(np.max(np.abs(flat), initial=0.0))
    t, x = _weighted_profile(psi, _spectral_points(psi, v_max))
    rows = max(1, _CHUNK_BYTES // (16 * t.size))
    out = np.empty(flat.shape, dtype=np.complex128)
    for lo in range(0, flat.size, rows):
        chunk = flat[lo : lo + rows]
        out[lo : lo + rows] = np.exp(-1j * csc * np.outer(chunk, t)) @ x
    out *= c_alpha(order, 1) * np.exp(0.5j * cot * flat**2)
    return out.reshape(u.shape)


def _side_grid(scan: FrequencyScan) -> tuple[np.ndarray, list[int]]:
    """Ascending |u| grid whose knots include every halved cutoff.

    Returns the grid and, per halving k = 0..halvings, the index of the
    cutoff u_min 2^-k within it.
    """
    knots = [scan.u_min * 2.0 ** (-k) for k in range(scan.halvings, -1, -1)]
    knots.append(scan.u_max)
    pieces: list[np.ndarray] = []
    cutoff_index: dict[float, int] = {}
    pos = 0
    for lo, hi in zip(knots[:-1], knots[1:]):
        seg = np.geomspace(lo, hi, max(3, int(round(scan.points_per_decade * math.log10(hi / lo))) + 1))
        if pieces:
            seg = seg[1:]
        else:
            cutoff_index[lo] = 0
        pieces.append(seg)
        pos += seg.size
        cutoff_index[hi] = pos - 1
    us = np.concatenate(pieces)
    indices = [cutoff_index[scan.u_min * 2.0 ** (-k)] for k in range(scan.halvings + 1)]
    return us, indices


def _both_sides(psi: WaveletSpec, order: TransformOrder, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of psi at +us and -us, one fractional_spectrum call for a real profile.

    With Psi(u) = p(u) S(u csc), p = c(alpha) exp(i/2 u^2 cot) even in u
    and S(-v) = conj(S(v)) for a real profile, Psi(-u) = conj(Psi(u)) p / conj(p).
    """
    pos = fractional_spectrum(psi, order, us)
    if np.iscomplexobj(psi.profile(us[:1])):
        return pos, fractional_spectrum(psi, order, -us)
    phase = c_alpha(order, 1) * np.exp(0.5j * order.cot * us**2)
    return pos, np.conj(pos) * (phase / np.conj(phase))


def _scan(
    phi: WaveletSpec,
    psi: WaveletSpec,
    order: TransformOrder,
    scan: FrequencyScan,
) -> tuple[list[complex], list[float], list[float]]:
    """Signed and moduli integrals over each truncated range, both signs of u."""
    us, cut_idx = _side_grid(scan)
    log_u = np.log(us)
    spec_psi_pos, spec_psi_neg = _both_sides(psi, order, us)
    if phi is psi:
        spec_phi_pos, spec_phi_neg = spec_psi_pos, spec_psi_neg
    else:
        spec_phi_pos, spec_phi_neg = _both_sides(phi, order, us)
    # du/|u| turns into d(log|u|) on each side
    signed = np.conj(spec_phi_pos) * spec_psi_pos + np.conj(spec_phi_neg) * spec_psi_neg
    moduli = np.abs(spec_phi_pos) * np.abs(spec_psi_pos) + np.abs(spec_phi_neg) * np.abs(spec_psi_neg)
    signed_vals, moduli_vals, cutoffs = [], [], []
    for k, idx in enumerate(cut_idx):
        cutoffs.append(scan.u_min * 2.0 ** (-k))
        signed_vals.append(complex(np.trapezoid(signed[idx:], x=log_u[idx:])))
        moduli_vals.append(float(np.trapezoid(moduli[idx:], x=log_u[idx:])))
    return signed_vals, moduli_vals, cutoffs


def _verdict(moduli_vals: list[float]) -> str:
    total = moduli_vals[-1]
    if total <= 0.0:
        return "indeterminate"
    inc = [b - a for a, b in zip(moduli_vals[:-1], moduli_vals[1:])]
    if inc[-1] <= _SETTLED_FRACTION * total and inc[-2] <= _SETTLED_FRACTION * total:
        return "finite"
    ratios = []
    for prev, cur in zip(inc[-4:-1], inc[-3:]):
        ratios.append(math.inf if prev <= 0.0 else cur / prev)
    if len(ratios) >= 2 and all(r >= _STEADY_RATIO for r in ratios):
        return "divergent"
    return "indeterminate"


def cross_admissibility(
    phi: WaveletSpec,
    psi: WaveletSpec,
    order: TransformOrder | float,
    scan: FrequencyScan | None = None,
    ndim: int = 1,
) -> AdmissibilityReport:
    """Cross constant of an analyzing/synthesizing wavelet pair.

    The signed value may vanish for spectrally orthogonal pairs even when
    the moduli integral is finite; callers that divide by it must check.
    A repeated call returns the same (frozen) report object.
    """
    return _report(phi, psi, _as_order(order), scan or FrequencyScan(), ndim, phi is psi)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _report(
    phi: WaveletSpec,
    psi: WaveletSpec,
    order: TransformOrder,
    scan: FrequencyScan,
    ndim: int,
    same: bool,
) -> AdmissibilityReport:
    # `same` keeps the key of a pair of equal but distinct specs apart
    # from the self constant, which reports no cross wavelet
    signed_vals, moduli_vals, cutoffs = _scan(phi, psi, order, scan)
    return AdmissibilityReport(
        wavelet=psi.name,
        cross_wavelet=None if same else phi.name,
        alpha=order.alpha,
        ndim=ndim,
        value=signed_vals[-1] ** ndim,
        moduli_value=moduli_vals[-1] ** ndim,
        verdict=_verdict(moduli_vals),
        trace=tuple(zip(cutoffs, moduli_vals)),
    )


def admissibility_cache_info():
    """Named tuple (hits, misses, maxsize, currsize) of the admissibility report memo."""
    return _report.cache_info()


def admissibility_constant(
    psi: WaveletSpec,
    order: TransformOrder | float,
    scan: FrequencyScan | None = None,
    ndim: int = 1,
) -> AdmissibilityReport:
    """Admissibility constant of a single wavelet at the given order."""
    return cross_admissibility(psi, psi, order, scan=scan, ndim=ndim)
