"""Morrey-norm estimation and scale-slice boundedness checks.

The norm is a supremum over balls of normalized mass, estimated here by
a finite center/radius scan.  The scan only ever under-estimates, so
every inequality check keeps the scanned quantity on the small side:
discretization cannot manufacture a false pass.  The signal norm that
appears as an upper-bound factor can be overridden with an analytic
value when one is known.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cfrwt import cfrwt_fast
from .errors import EmptyScan, GridMismatch
from .frft import TransformOrder
from .grid import Grid, SampledSignal, grids_close, l1_norm
from .report import VerificationReport
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
    axis_points = [
        np.linspace(ax.start, ax.start + (ax.count - 1) * ax.step, per_axis) for ax in grid.axes
    ]
    centers = tuple(tuple(float(c) for c in combo) for combo in itertools.product(*axis_points))
    step = max(ax.step for ax in grid.axes)
    half_width = min((ax.count - 1) * ax.step for ax in grid.axes) / 2.0
    radii = tuple(float(r) for r in np.geomspace(2.0 * step, half_width, 32))
    return MorreyConfig(nu, centers, radii)


def morrey_norm(f: SampledSignal, cfg: MorreyConfig) -> MorreyEstimate:
    """Largest normalized ball mass over the scan.

    Per center the samples are ordered by distance once; each radius is
    then a prefix sum, with boundary samples included.  The result is a
    lower bound of the true supremum.
    """
    if not cfg.centers or not cfg.radii:
        raise EmptyScan("morrey scan needs at least one center and one radius")
    lo = [ax.start for ax in f.grid.axes]
    hi = [ax.start + (ax.count - 1) * ax.step for ax in f.grid.axes]
    coords = [m.ravel() for m in f.grid.meshgrid()]
    mass = (f.grid.weights() * np.abs(f.values)).ravel()
    radii = np.sort(np.asarray(cfg.radii, dtype=float))
    scale = radii ** (-cfg.nu)
    r2 = radii**2
    best_val = -1.0
    best_center: tuple[float, ...] = cfg.centers[0]
    best_radius = radii[0]
    for center in cfg.centers:
        if len(center) != f.ndim:
            raise ValueError(f"center {center} has wrong dimension for a {f.ndim}-d signal")
        for c, a_lo, a_hi in zip(center, lo, hi):
            if not a_lo - 1e-9 <= c <= a_hi + 1e-9:
                raise ValueError(f"center {center} lies outside the grid hull")
        d2 = sum((x - c) ** 2 for x, c in zip(coords, center))
        order = np.argsort(d2, kind="stable")
        prefix = np.concatenate(([0.0], np.cumsum(mass[order])))
        counts = np.searchsorted(d2[order], r2, side="right")
        vals = scale * prefix[counts]
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_center = tuple(float(c) for c in center)
            best_radius = float(radii[k])
    return MorreyEstimate(best_val, best_center, best_radius)


def _slice(
    f: SampledSignal,
    psi: WaveletSpec,
    a: tuple[float, ...] | float,
    order: TransformOrder | float,
) -> SampledSignal:
    vec = np.atleast_1d(np.asarray(a, dtype=float))
    if vec.shape != (f.ndim,):
        raise ValueError(f"scale vector has {vec.size} components, signal has {f.ndim}")
    mags = np.abs(vec)
    grid = ScaleGrid(
        vec[None, :],
        log_step=0.0,
        a_min=float(mags.min()),
        a_max=float(mags.max()),
        signs="fixed",
    )
    coeffs = cfrwt_fast(f, psi, order, grid)
    return SampledSignal(coeffs.b_grid, coeffs.values[0])


def _magnitude(a: tuple[float, ...] | float, ndim: int) -> float:
    vec = np.atleast_1d(np.asarray(a, dtype=float))
    if vec.shape != (ndim,):
        raise ValueError(f"scale vector has {vec.size} components, expected {ndim}")
    return float(np.prod(np.abs(vec)))


def _holds(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + _REL_SLACK)


def _slack(lhs: float, rhs: float) -> float:
    if rhs > 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else math.inf


def morrey_bound_check(
    f: SampledSignal,
    psi: WaveletSpec,
    a: tuple[float, ...] | float,
    order: TransformOrder | float,
    cfg: MorreyConfig,
    f_morrey: float | None = None,
) -> VerificationReport:
    """Scale-slice Morrey bound, its L1 companion, and the growth sweep.

    Checks that the slice norm stays below sqrt of the scale magnitude
    times the wavelet L1 norm times the signal norm, that the plain L1
    version of the same bound holds, and that the norm grows no faster
    than the square root along an isotropic scale sweep.
    """
    n = f.ndim
    mag = _magnitude(a, n)
    slice_a = _slice(f, psi, a, order)
    lhs = morrey_norm(slice_a, cfg).value
    fm = f_morrey if f_morrey is not None else morrey_norm(f, cfg).value
    psi_l1 = wavelet_l1_norm(psi) ** n
    rhs = math.sqrt(mag) * psi_l1 * fm

    l1_lhs = l1_norm(slice_a)
    l1_rhs = math.sqrt(mag) * psi_l1 * l1_norm(f)

    sweep = []
    for s in _GROWTH_SWEEP:
        sweep.append(morrey_norm(_slice(f, psi, (s,) * n, order), cfg).value)
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
    return VerificationReport("morrey_slice_bound", lhs, rhs, _slack(lhs, rhs), 1.0, passed, details)


def _l1_distance(phi: WaveletSpec, psi: WaveletSpec, ndim: int) -> float:
    r = max(phi.support_radius, psi.support_radius)
    if ndim == 1:
        t = np.linspace(-r, r, 8192)
        diff = np.abs(
            np.asarray(phi.evaluate(t), dtype=complex) - np.asarray(psi.evaluate(t), dtype=complex)
        )
        return float(np.trapezoid(diff, x=t))
    if ndim == 2:
        t = np.linspace(-r, r, 1024)
        x, y = np.meshgrid(t, t, indexing="ij")
        diff = np.abs(
            np.asarray(phi.evaluate(x, y), dtype=complex)
            - np.asarray(psi.evaluate(x, y), dtype=complex)
        )
        return float(np.trapezoid(np.trapezoid(diff, x=t, axis=1), x=t))
    raise ValueError("wavelet distance quadrature supports 1 or 2 dimensions")


def morrey_distance_checks(
    f: SampledSignal,
    g: SampledSignal,
    phi: WaveletSpec,
    psi: WaveletSpec,
    a: tuple[float, ...] | float,
    order: TransformOrder | float,
    cfg: MorreyConfig,
    f_morrey: float | None = None,
    diff_morrey: float | None = None,
) -> VerificationReport:
    """Perturbation bounds on a coefficient slice, all three at once.

    Swapping the wavelet moves the slice by the wavelet L1 distance
    times the signal norm; swapping the signal moves it by the signal
    Morrey distance times the wavelet L1 norm; swapping both is bounded
    by the sum.  The report's headline numbers are the combined bound,
    with the two single-swap checks in the details.
    """
    if not grids_close(f.grid, g.grid):
        raise GridMismatch("signals live on different grids")
    n = f.ndim
    mag = _magnitude(a, n)
    root = math.sqrt(mag)

    w_f_phi = _slice(f, phi, a, order)
    w_f_psi = _slice(f, psi, a, order)
    w_g_psi = _slice(g, psi, a, order)

    def norm_of_difference(u: SampledSignal, v: SampledSignal) -> float:
        return morrey_norm(SampledSignal(u.grid, u.values - v.values), cfg).value

    fm = f_morrey if f_morrey is not None else morrey_norm(f, cfg).value
    dm = (
        diff_morrey
        if diff_morrey is not None
        else morrey_norm(SampledSignal(f.grid, f.values - g.values), cfg).value
    )
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
    worst = max(_slack(l, r) for l, r in checks)
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
