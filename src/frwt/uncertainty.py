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

from .admissibility import FrequencyScan
from .cfrwt import CfrwtCoefficients, _field_normalizer
from .errors import InvalidAnglePair, TailDominated, ThetaAtBoundary
from .frft import _transform, frft_fast
from .grid import Grid, SampledSignal, _exact_row_sums, _exact_sum, _require_same_grid, _separable, l2_norm
from .report import VerificationReport, _ratio

__all__ = [
    "LocalEntry",
    "LocalUncertaintyReport",
    "dispersion",
    "heisenberg_two_domain",
    "heisenberg_cfrwt",
    "lemma_moment_identity_check",
    "restricted_energy_identity_check",
    "local_uncertainty_scan",
]

# angle differences closer to a multiple of pi than this make the
# inequality floor vanish; there is nothing to verify
_MIN_ANGLE_GAP = 1e-6

_TAIL_FRACTION = 0.01


def _check_theta(theta: float) -> None:
    if not 0.0 < theta <= 8.0:
        raise ValueError("moment exponent must lie in (0, 8]")


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
    _check_theta(theta)
    return _radial_moments(f.grid, f.values, theta)[0]


def _radial_moments(grid: Grid, values: np.ndarray, theta: float) -> list[float]:
    """dispersion of each signal in a batch: leading axes of values index
    the signals, trailing axes run over grid, and the tail rule holds per
    signal."""
    r2 = grid.radius_sq()
    rows = (grid.weights() * np.abs(values) ** 2 * r2**theta).reshape(-1, grid.size)
    moments = _exact_row_sums(rows)
    tails = _exact_row_sums(rows[:, (r2 > r2.max() / 4.0).reshape(-1)])
    for total, tail in zip(moments, tails):
        if total > 0.0 and tail > _TAIL_FRACTION * total:
            raise TailDominated(
                f"outer radial octave holds {tail / total:.1%} of the moment; "
                "enlarge the grid or use a faster-decaying signal"
            )
    return moments


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
) -> VerificationReport:
    """Second-moment product in two fractional domains against its floor.

    The floor is (n^2/4) sin^2(alpha-beta) ||f||^4; a centered Gaussian
    at the quarter-cycle pair meets it with equality.
    """
    s = _angle_gap(alpha, beta)
    n = f.ndim
    lhs = dispersion(frft_fast(f, beta), 1.0) * dispersion(frft_fast(f, alpha), 1.0)
    rhs = (n**2 / 4.0) * s**2 * l2_norm(f) ** 4
    ratio = _ratio(lhs, rhs)
    slack = 1e-3
    return VerificationReport(
        "heisenberg_two_domain", lhs, rhs, ratio, slack, ratio >= 1.0 - slack, {"alpha": alpha, "beta": beta}
    )


def _scale_densities(coeffs: CfrwtCoefficients, angle: float) -> tuple[Grid, np.ndarray]:
    """Output grid and the weighted energy densities of every scale row of
    the field's b-spectrum at angle: one batched transform."""
    grid, spectra = _transform(coeffs.b_grid, coeffs.values, angle)
    return grid, grid.weights() * np.abs(spectra) ** 2


def _scale_moment_sum(coeffs: CfrwtCoefficients, densities: tuple[Grid, np.ndarray], mask: np.ndarray | None = None) -> float:
    """Sum over scales of the b-spectrum second moment, against da/|a|_p^2,
    from the field's _scale_densities.

    With mask given, the moment weight is replaced by the mask (a
    restricted plain energy instead of a radial moment).
    """
    grid, density = densities
    weights_a = coeffs.scales.measure_weights()
    if mask is None:
        per_scale = _exact_row_sums((density * grid.radius_sq()).reshape(len(density), -1))
    else:
        per_scale = _exact_row_sums(density[:, mask])
    return _exact_sum(weights_a * np.array(per_scale))


def _ball_mask(grid: Grid, center: tuple[float, ...], radius: float) -> np.ndarray:
    """Samples of grid in the closed ball of radius about center."""
    if radius <= 0.0:
        raise ValueError("ball radius must be positive")
    if len(center) != grid.ndim:
        raise ValueError(f"center {center} has wrong dimension for a {grid.ndim}-d grid")
    d2 = _separable([(pts - c) ** 2 for pts, c in zip(grid.axis_points(), center)])
    return d2 <= radius**2


def heisenberg_cfrwt(
    coeffs: CfrwtCoefficients,
    f: SampledSignal,
    beta: float,
    scan: FrequencyScan | None = None,
) -> VerificationReport:
    """Uncertainty product of the coefficient field coeffs of f against its floor.

    The discrete scale range truncates the coefficient-side moment, so
    the reported ratio is normalized by the measured moment identity
    (the truncated analogue of the admissibility factor); the raw ratio
    against the untruncated floor is kept in the details.
    """
    alpha = coeffs.order.alpha
    s = _angle_gap(alpha, beta)
    n = f.ndim
    adm, mod = _field_normalizer(coeffs, f, coeffs, f, scan)

    moment_beta = _scale_moment_sum(coeffs, _scale_densities(coeffs, beta))
    moment_alpha = dispersion(frft_fast(f, alpha), 1.0)
    lhs = moment_beta * moment_alpha

    norm4 = l2_norm(f) ** 4
    rhs_full = (n**2 / 4.0) * (adm.value.real / mod) * s**2 * norm4

    # measured truncation of the admissibility factor: coefficient-side
    # alpha-moment over the signal-side alpha-moment
    c_eff = _ratio(_scale_moment_sum(coeffs, _scale_densities(coeffs, alpha)), moment_alpha)
    rhs_norm = (n**2 / 4.0) * c_eff * s**2 * norm4
    ratio = _ratio(lhs, rhs_norm)
    details = {
        "raw_ratio": _ratio(lhs, rhs_full),
        "rhs_untruncated": rhs_full,
        "identity_ratio": c_eff * mod / adm.value.real,
        "admissibility": adm.value.real,
        "alpha": alpha,
        "beta": beta,
    }
    slack = 0.05
    return VerificationReport("heisenberg_cfrwt", lhs, rhs_norm, ratio, slack, ratio >= 1.0 - slack, details)


def lemma_moment_identity_check(
    coeffs: CfrwtCoefficients,
    f: SampledSignal,
    scan: FrequencyScan | None = None,
) -> VerificationReport:
    """Second-moment identity between the coefficient field coeffs of f and f's spectrum.

    The scale integral of the b-spectrum moment equals the admissibility
    factor times the signal's spectral moment; truncation of the scale
    range can only lose nonnegative mass, so the ratio approaches 1 from
    below as the range widens.
    """
    alpha = coeffs.order.alpha
    adm, mod = _field_normalizer(coeffs, f, coeffs, f, scan)
    lhs = _scale_moment_sum(coeffs, _scale_densities(coeffs, alpha))
    rhs = (adm.value.real / mod) * dispersion(frft_fast(f, alpha), 1.0)
    ratio = _ratio(lhs, rhs)
    tolerance = 0.05
    details = {"admissibility": adm.value.real}
    return VerificationReport("coefficient_moment_identity", lhs, rhs, ratio, tolerance, abs(ratio - 1.0) <= tolerance, details)


def restricted_energy_identity_check(
    coeffs: CfrwtCoefficients,
    f: SampledSignal,
    center: tuple[float, ...],
    radius: float,
    scan: FrequencyScan | None = None,
) -> VerificationReport:
    """Ball-restricted energy identity between the alpha-spectra of coeffs and f.

    Restricting the spectral integrals to a ball E keeps the identity
    intact; both sides use the same discrete mask, so the comparison is
    exact up to scale truncation.
    """
    alpha = coeffs.order.alpha
    adm, mod = _field_normalizer(coeffs, f, coeffs, f, scan)
    spec = frft_fast(f, alpha)
    mask = _ball_mask(spec.grid, center, radius)
    if not np.any(mask):
        raise ValueError("ball contains no spectral samples")
    lhs = _scale_moment_sum(coeffs, _scale_densities(coeffs, alpha), mask)
    rhs = (adm.value.real / mod) * _exact_sum((spec.grid.weights() * np.abs(spec.values) ** 2)[mask])
    ratio = _ratio(lhs, rhs)
    tolerance = 0.05
    details = {"center": center, "radius": radius}
    return VerificationReport("restricted_energy_identity", lhs, rhs, ratio, tolerance, abs(ratio - 1.0) <= tolerance, details)


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
    return _LocalTable(f_family, alpha, beta, (theta,), e_family).report(theta)


class _LocalTable:
    """The signal side of the local scan, computed once for a family of
    signals on one grid, a list of balls and the exponents thetas it will
    be read at: one alpha and one beta transform of the whole family, the
    restricted energy of every (ball, signal) pair, one radial moment row
    per theta and, only if some theta is supercritical, the norms.

    report reads one theta over any subsets of the signals and balls with
    the floating-point operations of a scan of those alone.  Every theta
    is checked, and every moment row taken (so the tail rule refuses any
    member of the family), before any ball is.
    """

    def __init__(
        self,
        f_family: list[SampledSignal],
        alpha: float,
        beta: float,
        thetas: tuple[float, ...],
        e_family: list[tuple[tuple[float, ...], float]],
    ) -> None:
        if not f_family:
            raise ValueError("need at least one signal")
        if not e_family:
            raise ValueError("need at least one ball")
        grid = f_family[0].grid
        n = self.ndim = grid.ndim
        for theta in thetas:
            _check_theta(theta)
            if abs(theta - n / 2.0) < 1e-6:
                raise ThetaAtBoundary(f"theta = {theta} sits at the critical exponent n/2 = {n / 2}")
        self.alpha, self.beta = alpha, beta
        self.s = _angle_gap(alpha, beta)

        for f in f_family[1:]:
            _require_same_grid(f, f_family[0])
        values = np.stack([f.values for f in f_family])
        out_grid, spectra = _transform(grid, values, alpha)
        beta_side = _transform(grid, values, beta)
        self.moments = {theta: _radial_moments(*beta_side, theta) for theta in thetas}
        # only the supercritical envelope reads the norms
        self.norms = [l2_norm(f) for f in f_family] if max(thetas) > n / 2.0 else None

        densities = out_grid.weights() * np.abs(spectra) ** 2
        self.balls = list(e_family)
        # energies[j][k]: ball j, signal k
        self.energies = [_exact_row_sums(densities[:, _ball_mask(out_grid, center, radius)]) for center, radius in e_family]

    def report(self, theta: float, signals: list[int] | None = None, balls: list[int] | None = None) -> LocalUncertaintyReport:
        """The scan at theta over the signals and balls of the given
        indices, in that order (all of them by default)."""
        n = self.ndim
        s = self.s
        moments, norms = self.moments[theta], self.norms
        branch = "subcritical" if theta < n / 2.0 else "supercritical"
        signals = range(len(moments)) if signals is None else signals
        entries = []
        for j in range(len(self.balls)) if balls is None else balls:
            center, radius = self.balls[j]
            energies = self.energies[j]
            lam = _ball_measure(radius, n)
            best_ratio = 0.0
            best_env = 0.0
            for k in signals:
                energy = energies[k]
                if branch == "subcritical":
                    env = energy * abs(s) ** (2.0 * theta) / moments[k]
                    ratio = env / lam ** (2.0 * theta / n)
                else:
                    env = energy * abs(s) ** n / (norms[k] ** (2.0 - n / theta) * moments[k] ** (n / (2.0 * theta)))
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
        return LocalUncertaintyReport(theta, self.alpha, self.beta, branch, a_hat, slope, tuple(entries))
