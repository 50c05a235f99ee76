"""Moment dispersions and uncertainty-inequality verifiers.

Two families of checks live here.  The two-domain family compares the
second-moment product of a signal's fractional spectra at two orders
against the n^2/4 sin^2 floor, which a Gaussian meets with equality at
the quarter-cycle pair.  The coefficient family runs the same game on
the wavelet coefficient field; its floor carries the admissibility
constant, and because the discrete scale range is finite, every check
also evaluates the moment identity that calibrates the truncation and
gates on the calibrated ratio.

The local checks bound a ball-restricted spectral energy by a moment on
the conjugate side.  The universal constant is only an existence
statement, so the scan reports the empirical supremum over a fixture
family and the growth exponent of its envelope against ball measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissibility import FrequencyScan, admissibility_constant
from .cfrwt import CfrwtCoefficients, cfrwt_fast
from .errors import InadmissibleWavelet, InvalidAnglePair, TailDominated, ThetaAtBoundary
from .frft import TransformOrder, _apply_plan, _warn_if_near_singular, c_alpha, frft_fast, make_plan
from .grid import Grid, SampledSignal, l2_norm
from .report import VerificationReport
from .scales import ScaleGrid
from .wavelets import WaveletSpec

__all__ = [
    "MomentSpec",
    "UncertaintyReport",
    "LocalEntry",
    "LocalUncertaintyReport",
    "dispersion",
    "heisenberg_two_domain",
    "heisenberg_cfrwt",
    "lemma_moment_identity_check",
    "restricted_energy_identity_check",
    "local_uncertainty_scan",
]

# below this, sin(angle) is treated as exactly zero (identity / reflection)
_DEGENERATE_SIN = 1e-12

# angle differences closer to a multiple of pi than this make the
# inequality floor vanish; there is nothing to verify
_MIN_ANGLE_GAP = 1e-6

_TAIL_FRACTION = 0.01


@dataclass(frozen=True)
class MomentSpec:
    """Moment exponent paired with the grid it will be evaluated on."""

    theta: float
    grid: Grid

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 8.0:
            raise ValueError("moment exponent must lie in (0, 8]")


@dataclass(frozen=True)
class UncertaintyReport:
    lhs: float
    rhs: float
    ratio: float
    alpha: float
    beta: float
    passed: bool
    details: dict

    def __post_init__(self) -> None:
        if self.lhs < 0.0 or self.rhs < 0.0:
            raise ValueError("both sides of an uncertainty product are nonnegative")


@dataclass(frozen=True)
class LocalEntry:
    """One ball of the scan: descriptor, measure, worst ratio over signals."""

    center: tuple[float, ...]
    radius: float
    measure: float
    ratio: float
    envelope: float

    def __post_init__(self) -> None:
        if self.measure <= 0.0:
            raise ValueError("ball measure must be positive")


@dataclass(frozen=True)
class LocalUncertaintyReport:
    theta: float
    alpha: float
    beta: float
    branch: str
    a_hat: float
    envelope_slope: float
    entries: tuple[LocalEntry, ...]


def dispersion(f: SampledSignal, theta: float) -> float:
    """Radial moment of order 2*theta about the origin.

    Raises TailDominated when the outermost radial octave of the grid
    carries more than 1% of the value: the truncated moment is then not
    trustworthy as a stand-in for the full integral.
    """
    if not 0.0 < theta <= 8.0:
        raise ValueError("moment exponent must lie in (0, 8]")
    r2 = f.grid.radius_sq()
    dens = f.grid.weights() * np.abs(f.values) ** 2
    weighted = dens * r2**theta
    total = float(math.fsum(weighted.ravel()))
    if total > 0.0:
        outer = r2 > r2.max() / 4.0
        tail = float(math.fsum(weighted[outer].ravel()))
        if tail > _TAIL_FRACTION * total:
            raise TailDominated(
                f"outer radial octave holds {tail / total:.1%} of the moment; "
                "enlarge the grid or use a faster-decaying signal"
            )
    return total


def _moment_spectra(grid: Grid, values: np.ndarray, angle: float) -> tuple[Grid, np.ndarray]:
    """Output grid and chirp-FFT-chirp spectra at angle of values over grid;
    leading axes of values are a batch sharing one plan."""
    # Identity and reflection orders permute or mirror the samples, which
    # leaves radial moments about the origin unchanged, so the input serves.
    if abs(math.sin(angle)) < _DEGENERATE_SIN:
        return grid, values
    plan = make_plan(grid, angle)
    _warn_if_near_singular(plan.order)
    return plan.output_grid, _apply_plan(values, plan)


def _moment_spectrum(f: SampledSignal, angle: float) -> SampledSignal:
    return SampledSignal(*_moment_spectra(f.grid, f.values, angle))


def _angle_gap(alpha: float, beta: float) -> float:
    s = math.sin(alpha - beta)
    if abs(s) < _MIN_ANGLE_GAP:
        raise InvalidAnglePair(
            f"orders {alpha} and {beta} differ by a multiple of pi; "
            "the uncertainty floor degenerates"
        )
    return s


def heisenberg_two_domain(
    f: SampledSignal,
    alpha: float,
    beta: float,
    slack: float = 1e-3,
) -> UncertaintyReport:
    """Second-moment product in two fractional domains against its floor.

    The floor is (n^2/4) sin^2(alpha-beta) ||f||^4; a centered Gaussian
    at the quarter-cycle pair meets it with equality.
    """
    s = _angle_gap(alpha, beta)
    n = f.ndim
    lhs = dispersion(_moment_spectrum(f, beta), 1.0) * dispersion(_moment_spectrum(f, alpha), 1.0)
    rhs = (n**2 / 4.0) * s**2 * l2_norm(f) ** 4
    ratio = lhs / rhs
    return UncertaintyReport(lhs, rhs, ratio, alpha, beta, ratio >= 1.0 - slack, {})


def _scale_moment_sum(
    coeffs: CfrwtCoefficients,
    angle: float,
    theta: float,
    mask: np.ndarray | None = None,
) -> float:
    """Sum over scales of the b-spectrum moment, against da/|a|_p^2.

    With mask given, the moment weight is replaced by the mask (a
    restricted plain energy instead of a radial moment).
    """
    weights_a = coeffs.scales.measure_weights()
    grid, spectra = _moment_spectra(coeffs.b_grid, coeffs.values, angle)
    density = grid.weights() * np.abs(spectra) ** 2
    if mask is None:
        per_scale = [math.fsum(d.ravel()) for d in density * grid.radius_sq() ** theta]
    else:
        per_scale = [math.fsum(d[mask].ravel()) for d in density]
    return float(math.fsum(weights_a * np.array(per_scale)))


def _gate_admissible(psi: WaveletSpec, alpha: float, ndim: int, scan: FrequencyScan | None):
    rep = admissibility_constant(psi, alpha, scan=scan, ndim=ndim)
    if rep.verdict == "divergent":
        raise InadmissibleWavelet(f"{psi.name} has a divergent admissibility integral")
    return rep


def heisenberg_cfrwt(
    f: SampledSignal,
    psi: WaveletSpec,
    alpha: float,
    beta: float,
    scales: ScaleGrid,
    scan: FrequencyScan | None = None,
    slack: float = 0.05,
) -> UncertaintyReport:
    """Uncertainty product for the coefficient field against its floor.

    The discrete scale range truncates the coefficient-side moment, so
    the reported ratio is normalized by the measured moment identity
    (the truncated analogue of the admissibility factor); the raw ratio
    against the untruncated floor is kept in the details.
    """
    s = _angle_gap(alpha, beta)
    n = f.ndim
    adm = _gate_admissible(psi, alpha, n, scan)
    coeffs = cfrwt_fast(f, psi, alpha, scales)

    moment_beta = _scale_moment_sum(coeffs, beta, 1.0)
    spec_alpha = frft_fast(f, alpha)
    moment_alpha = dispersion(spec_alpha, 1.0)
    lhs = moment_beta * moment_alpha

    norm4 = l2_norm(f) ** 4
    mod = abs(c_alpha(TransformOrder(alpha), n)) ** 2
    rhs_full = (n**2 / 4.0) * (adm.value.real / mod) * s**2 * norm4

    # measured truncation of the admissibility factor: coefficient-side
    # alpha-moment over the signal-side alpha-moment
    c_eff = _scale_moment_sum(coeffs, alpha, 1.0) / moment_alpha
    rhs_norm = (n**2 / 4.0) * c_eff * s**2 * norm4
    ratio = lhs / rhs_norm
    details = {
        "raw_ratio": lhs / rhs_full,
        "rhs_untruncated": rhs_full,
        "identity_ratio": c_eff * mod / adm.value.real,
        "admissibility": adm.value.real,
    }
    return UncertaintyReport(lhs, rhs_norm, ratio, alpha, beta, ratio >= 1.0 - slack, details)


def lemma_moment_identity_check(
    f: SampledSignal,
    psi: WaveletSpec,
    alpha: float,
    scales: ScaleGrid,
    scan: FrequencyScan | None = None,
    tolerance: float = 0.05,
) -> VerificationReport:
    """Second-moment identity between coefficient field and signal spectrum.

    The scale integral of the b-spectrum moment equals the admissibility
    factor times the signal's spectral moment; truncation of the scale
    range can only lose nonnegative mass, so the ratio approaches 1 from
    below as the range widens.
    """
    n = f.ndim
    adm = _gate_admissible(psi, alpha, n, scan)
    coeffs = cfrwt_fast(f, psi, alpha, scales)
    lhs = _scale_moment_sum(coeffs, alpha, 1.0)
    mod = abs(c_alpha(TransformOrder(alpha), n)) ** 2
    rhs = (adm.value.real / mod) * dispersion(frft_fast(f, alpha), 1.0)
    ratio = lhs / rhs
    return VerificationReport(
        "coefficient_moment_identity",
        lhs,
        rhs,
        ratio,
        tolerance,
        abs(ratio - 1.0) <= tolerance,
        {"admissibility": adm.value.real},
    )


def restricted_energy_identity_check(
    f: SampledSignal,
    psi: WaveletSpec,
    alpha: float,
    scales: ScaleGrid,
    center: tuple[float, ...],
    radius: float,
    scan: FrequencyScan | None = None,
    tolerance: float = 0.05,
) -> VerificationReport:
    """Ball-restricted energy identity between the two alpha-spectra.

    Restricting the spectral integrals to a ball E keeps the identity
    intact; both sides use the same discrete mask, so the comparison is
    exact up to scale truncation.
    """
    if radius <= 0.0:
        raise ValueError("ball radius must be positive")
    n = f.ndim
    adm = _gate_admissible(psi, alpha, n, scan)
    coeffs = cfrwt_fast(f, psi, alpha, scales)
    spec = frft_fast(f, alpha)
    axes = spec.grid.meshgrid()
    d2 = sum((ax - c) ** 2 for ax, c in zip(axes, center))
    mask = d2 <= radius**2
    if not np.any(mask):
        raise ValueError("ball contains no spectral samples")
    lhs = _scale_moment_sum(coeffs, alpha, 0.0, mask=mask)
    mod = abs(c_alpha(TransformOrder(alpha), n)) ** 2
    rhs = (adm.value.real / mod) * float(
        math.fsum((spec.grid.weights() * np.abs(spec.values) ** 2)[mask].ravel())
    )
    ratio = lhs / rhs
    return VerificationReport(
        "restricted_energy_identity",
        lhs,
        rhs,
        ratio,
        tolerance,
        abs(ratio - 1.0) <= tolerance,
        {"center": center, "radius": radius},
    )


def _ball_measure(radius: float, n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * radius**n


def local_uncertainty_scan(
    f_family: list[SampledSignal],
    alpha: float,
    beta: float,
    theta: float,
    e_family: list[tuple[tuple[float, ...], float]],
) -> LocalUncertaintyReport:
    """Ball-restricted spectral energy against the conjugate-side moment.

    For each ball E and signal f the ratio of the restricted energy to
    the moment structure (with the universal constant set to 1) is
    recorded; the supremum is the empirical constant.  The envelope of
    the numerator over the signal family, regressed against ball
    measure on the small-ball half, exposes the growth exponent:
    2*theta/n below the critical exponent, 1 above it.
    """
    if not f_family:
        raise ValueError("need at least one signal")
    if not e_family:
        raise ValueError("need at least one ball")
    grid = f_family[0].grid
    n = grid.ndim
    if not 0.0 < theta <= 8.0:
        raise ValueError("moment exponent must lie in (0, 8]")
    if abs(theta - n / 2.0) < 1e-6:
        raise ThetaAtBoundary(f"theta = {theta} sits at the critical exponent n/2 = {n / 2}")
    MomentSpec(theta, grid)
    s = _angle_gap(alpha, beta)
    branch = "subcritical" if theta < n / 2.0 else "supercritical"

    spectra = [frft_fast(f, alpha) for f in f_family]
    moments = [dispersion(_moment_spectrum(f, beta), theta) for f in f_family]
    norms = [l2_norm(f) for f in f_family]

    out_grid = spectra[0].grid
    axes = out_grid.meshgrid()
    w = out_grid.weights()

    entries = []
    for center, radius in e_family:
        if radius <= 0.0:
            raise ValueError("ball radius must be positive")
        d2 = sum((ax - c) ** 2 for ax, c in zip(axes, center))
        mask = d2 <= radius**2
        lam = _ball_measure(radius, n)
        best_ratio = 0.0
        best_env = 0.0
        for spec, moment, norm in zip(spectra, moments, norms):
            energy = float(math.fsum((w * np.abs(spec.values) ** 2)[mask].ravel()))
            if branch == "subcritical":
                env = energy * abs(s) ** (2.0 * theta) / moment
                ratio = env / lam ** (2.0 * theta / n)
            else:
                env = energy * abs(s) ** n / (norm ** (2.0 - n / theta) * moment ** (n / (2.0 * theta)))
                ratio = env / lam
            best_ratio = max(best_ratio, ratio)
            best_env = max(best_env, env)
        entries.append(LocalEntry(tuple(center), radius, lam, best_ratio, best_env))

    a_hat = max(e.ratio for e in entries)
    # envelope exponent from the small-ball half of the scan
    by_measure = sorted(entries, key=lambda e: e.measure)
    half = by_measure[: max(2, len(by_measure) // 2)]
    xs = np.log([e.measure for e in half])
    ys = np.log([max(e.envelope, 1e-300) for e in half])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return LocalUncertaintyReport(theta, alpha, beta, branch, a_hat, slope, tuple(entries))
