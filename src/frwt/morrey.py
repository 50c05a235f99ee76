"""Morrey-norm estimation and scale-slice boundedness checks.

The norm is a supremum over balls of normalized mass, estimated here by
a finite center/radius scan.  The scan only ever under-estimates, so
every inequality check keeps the scanned quantity on the small side:
discretization cannot manufacture a false pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cfrwt import cfrwt_fast
from .errors import EmptyScan
from .frft import TransformOrder, _row_blocks
from .grid import Grid, SampledSignal, _require_same_grid, _separable, l1_norm
from .memo import memoized
from .report import VerificationReport, _ratio
from .scales import ScaleGrid
from .wavelets import WaveletSpec, wavelet_l1_norm

__all__ = [
    "MorreyConfig",
    "MorreyEstimate",
    "default_morrey_config",
    "morrey_norm",
    "morrey_bound_check",
    "morrey_distance_checks",
]

_GROWTH_SWEEP = (1.0, 2.0, 4.0, 8.0)

# upper slack on the measured growth exponent per axis; the bound only
# claims O(sqrt), so slower growth is fine
_GROWTH_CAP = 0.6

_REL_SLACK = 1e-9

# a scan whose ball orders (8 bytes a sample and center) take more bytes
# than this sorts each block of centers afresh on every call, so that a
# call on a large grid holds one block's orders (the 64 default centers
# of a 256^2 grid would take 32 MiB); the scans of `frwt verify all`
# take at most 1 MiB
_KEPT_ORDER_BYTES = 2 << 20


@dataclass(frozen=True)
class MorreyConfig:
    """Scan parameters: norm exponent, ball centers and radii."""

    nu: float
    centers: tuple[tuple[float, ...], ...]
    radii: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.nu < 0.0:
            raise ValueError("norm exponent nu must be nonnegative")
        if any(r <= 0.0 for r in self.radii):
            raise ValueError("all scan radii must be positive")


@dataclass(frozen=True)
class MorreyEstimate:
    """Scan maximum with the ball that attained it."""

    value: float
    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError("a Morrey estimate is nonnegative")


def default_morrey_config(grid: Grid, nu: float) -> MorreyConfig:
    """64 centers across the grid hull, 32 log radii up to the half-width."""
    per_axis = {1: 64, 2: 8}.get(grid.ndim, 4)
    axis_points = [np.linspace(ax.start, ax.stop, per_axis) for ax in grid.axes]
    centers = tuple(tuple(float(c) for c in combo) for combo in itertools.product(*axis_points))
    step = max(ax.step for ax in grid.axes)
    half_width = min((ax.count - 1) * ax.step for ax in grid.axes) / 2.0
    radii = tuple(float(r) for r in np.geomspace(2.0 * step, half_width, 32))
    return MorreyConfig(nu, centers, radii)


def _center_distances(grid: Grid, centers: tuple[tuple[float, ...], ...]) -> np.ndarray:
    """Squared distance of every sample of grid (in C order) from each
    center, one row per center: per center, the sum of the axes' squared
    offsets that _separable forms, in the same axis order."""
    offsets = np.array(centers)
    d2 = None
    for k, pts in enumerate(grid.axis_points()):
        sq = (pts - offsets[:, k : k + 1]) ** 2
        d2 = sq if d2 is None else d2[..., None] + sq.reshape((len(centers),) + (1,) * (d2.ndim - 1) + (-1,))
    return d2.reshape(len(centers), -1)


@memoized
def _ball_orders(grid: Grid, centers: tuple[tuple[float, ...], ...], radii: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each center's samples of grid ordered by distance (a stable argsort,
    one row per center), and how many of them lie in the closed ball of
    each of the ascending radii."""
    d2 = _center_distances(grid, centers)
    orders = np.argsort(d2, axis=1, kind="stable")
    r2 = np.asarray(radii) ** 2
    counts = np.stack([np.searchsorted(row[order], r2, side="right") for row, order in zip(d2, orders)])
    return orders, counts


def _ball_values(mass: np.ndarray, scale: np.ndarray, order: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """scale times the mass of each center's first counts samples in its
    order, one row per center: a prefix sum taken in distance order."""
    prefix = np.zeros((len(order), mass.size + 1))
    np.cumsum(mass[order], axis=1, out=prefix[:, 1:])
    return scale * np.take_along_axis(prefix, counts, axis=1)


def morrey_norm(f: SampledSignal, cfg: MorreyConfig) -> MorreyEstimate:
    """Largest normalized ball mass over the scan.

    Per center the samples are ordered by distance once (the memo keeps
    the orders of a scan of at most _KEPT_ORDER_BYTES); each radius is
    then a prefix sum, with boundary samples included, formed for a
    block of centers at once.  The first center in cfg.centers order
    that attains the largest value, at its first such radius, is
    reported.  The result is a lower bound of the true supremum.
    """
    if not cfg.centers or not cfg.radii:
        raise EmptyScan("morrey scan needs at least one center and one radius")
    grid = f.grid
    lo = [ax.start for ax in grid.axes]
    hi = [ax.stop for ax in grid.axes]
    for center in cfg.centers:
        if len(center) != f.ndim:
            raise ValueError(f"center {center} has wrong dimension for a {f.ndim}-d signal")
        for c, a_lo, a_hi in zip(center, lo, hi):
            if not a_lo - 1e-9 <= c <= a_hi + 1e-9:
                raise ValueError(f"center {center} lies outside the grid hull")
    centers = tuple(tuple(float(c) for c in center) for center in cfg.centers)
    mass = (grid.weights() * np.abs(f.values)).ravel()
    radii = np.sort(np.asarray(cfg.radii, dtype=float))
    scale = radii ** (-cfg.nu)
    key = tuple(radii.tolist())
    kept = 8 * len(centers) * mass.size <= _KEPT_ORDER_BYTES
    if kept:
        orders, counts = _ball_orders(grid, centers, key)
    best_val = -1.0
    best_center: tuple[float, ...] = centers[0]
    best_radius = radii[0]
    for rows in _row_blocks(len(centers), mass.size):
        # an unkept block's orders are built here and dropped with its values
        block = (orders[rows], counts[rows]) if kept else _ball_orders.__wrapped__(grid, centers[rows], key)
        vals = _ball_values(mass, scale, *block)
        del block
        ks = np.argmax(vals, axis=1)
        # strict >: the first center wins a tie
        for center, k, val in zip(centers[rows], ks.tolist(), vals[np.arange(len(ks)), ks].tolist()):
            if val > best_val:
                best_val, best_center, best_radius = val, center, float(radii[k])
    return MorreyEstimate(best_val, best_center, best_radius)


def _slices(
    f: SampledSignal,
    psi: WaveletSpec,
    a: tuple[float, ...] | float,
    order: TransformOrder | float,
    sweep: tuple[float, ...] = (),
) -> tuple[float, list[SampledSignal]]:
    """|a|_p and the coefficient slices of f at scale vector a, then at the
    isotropic scale vector (s, .., s) of each s in sweep, all from one
    coefficient pass."""
    vec = np.atleast_1d(np.asarray(a, dtype=float))
    if vec.shape != (f.ndim,):
        raise ValueError(f"scale vector has {vec.size} components, signal has {f.ndim}")
    isotropic = np.repeat(np.array(sweep, dtype=float)[:, None], f.ndim, axis=1)
    vectors = np.concatenate([vec[None, :], isotropic])
    mags = np.abs(vectors)
    grid = ScaleGrid(
        vectors,
        log_step=0.0,
        a_min=float(mags.min()),
        a_max=float(mags.max()),
        signs="fixed",
    )
    coeffs = cfrwt_fast(f, psi, order, grid)
    return float(np.prod(np.abs(vec))), [SampledSignal(coeffs.b_grid, row) for row in coeffs.values]


def _holds(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + _REL_SLACK)


def morrey_bound_check(
    f: SampledSignal,
    psi: WaveletSpec,
    a: tuple[float, ...] | float,
    order: TransformOrder | float,
    cfg: MorreyConfig,
) -> VerificationReport:
    """Scale-slice Morrey bound, its L1 companion, and the growth sweep.

    Checks that the slice norm stays below sqrt of the scale magnitude
    times the wavelet L1 norm times the signal norm, that the plain L1
    version of the same bound holds, and that the norm grows no faster
    than the square root along an isotropic scale sweep.
    """
    n = f.ndim
    mag, (slice_a, *sweep_slices) = _slices(f, psi, a, order, _GROWTH_SWEEP)
    lhs = morrey_norm(slice_a, cfg).value
    fm = morrey_norm(f, cfg).value
    psi_l1 = wavelet_l1_norm(psi) ** n
    rhs = math.sqrt(mag) * psi_l1 * fm

    l1_lhs = l1_norm(slice_a)
    l1_rhs = math.sqrt(mag) * psi_l1 * l1_norm(f)

    sweep = [morrey_norm(w, cfg).value for w in sweep_slices]
    if min(sweep) > 0.0:
        exponent = float(np.polyfit(np.log(_GROWTH_SWEEP), np.log(sweep), 1)[0])
        growth_ok = exponent <= _GROWTH_CAP * n
    else:
        # a vanishing slice has no growth rate to bound
        exponent = None
        growth_ok = True

    passed = _holds(lhs, rhs) and _holds(l1_lhs, l1_rhs) and growth_ok
    details = {
        "l1_lhs": l1_lhs,
        "l1_rhs": l1_rhs,
        "growth_exponent": exponent,
        "growth_values": tuple(sweep),
        "signal_morrey": fm,
        "wavelet_l1": psi_l1,
    }
    return VerificationReport("morrey_slice_bound", lhs, rhs, _ratio(lhs, rhs), 1.0, passed, details)


def _l1_distance(phi: WaveletSpec, psi: WaveletSpec, ndim: int) -> float:
    points = {1: 8192, 2: 1024}.get(ndim)
    if points is None:
        raise ValueError("wavelet distance quadrature supports 1 or 2 dimensions")
    r = max(phi.support_radius, psi.support_radius)
    t = np.linspace(-r, r, points)
    diff = np.abs(
        _separable([phi.profile(t)] * ndim, np.multiply) - _separable([psi.profile(t)] * ndim, np.multiply)
    )
    for _ in range(ndim):
        diff = np.trapezoid(diff, x=t, axis=-1)
    return float(diff)


def morrey_distance_checks(
    f: SampledSignal,
    g: SampledSignal,
    phi: WaveletSpec,
    psi: WaveletSpec,
    a: tuple[float, ...] | float,
    order: TransformOrder | float,
    cfg: MorreyConfig,
) -> VerificationReport:
    """Perturbation bounds on a coefficient slice, all three at once.

    Swapping the wavelet moves the slice by the wavelet L1 distance
    times the signal norm; swapping the signal moves it by the signal
    Morrey distance times the wavelet L1 norm; swapping both is bounded
    by the sum.  The report's headline numbers are the combined bound,
    with the two single-swap checks in the details.
    """
    _require_same_grid(f, g)
    n = f.ndim
    mag, (w_f_phi,) = _slices(f, phi, a, order)
    _, (w_f_psi,) = _slices(f, psi, a, order)
    _, (w_g_psi,) = _slices(g, psi, a, order)
    root = math.sqrt(mag)

    def norm_of_difference(u: SampledSignal, v: SampledSignal) -> float:
        return morrey_norm(SampledSignal(u.grid, u.values - v.values), cfg).value

    fm = morrey_norm(f, cfg).value
    dm = morrey_norm(SampledSignal(f.grid, f.values - g.values), cfg).value
    phi_psi_l1 = _l1_distance(phi, psi, n)
    psi_l1 = wavelet_l1_norm(psi) ** n

    lhs_wavelet = norm_of_difference(w_f_phi, w_f_psi)
    rhs_wavelet = root * fm * phi_psi_l1
    lhs_signal = norm_of_difference(w_f_psi, w_g_psi)
    rhs_signal = root * dm * psi_l1
    lhs_both = norm_of_difference(w_f_phi, w_g_psi)
    rhs_both = rhs_wavelet + rhs_signal

    checks = [
        (lhs_wavelet, rhs_wavelet),
        (lhs_signal, rhs_signal),
        (lhs_both, rhs_both),
    ]
    passed = all(_holds(l, r) for l, r in checks)
    worst = max(_ratio(l, r) for l, r in checks)
    details = {
        "wavelet_perturbation": {"lhs": lhs_wavelet, "rhs": rhs_wavelet},
        "signal_perturbation": {"lhs": lhs_signal, "rhs": rhs_signal},
        "wavelet_l1_distance": phi_psi_l1,
        "signal_morrey_distance": dm,
        # the combined right side dominates the single-swap left sides
        "triangle_consistent": _holds(lhs_wavelet + lhs_signal, rhs_both),
    }
    return VerificationReport(
        "morrey_distance_bounds", lhs_both, rhs_both, worst, 1.0, passed, details
    )
