"""Fractional convolution and its spectral factorization checks.

The order-alpha convolution of two signals is an ordinary convolution
conjugated by quadratic chirps:

    (f *_a g)(t) = exp(-i/2 |t|^2 cot a) * [ (exp(i/2 |y|^2 cot a) f) conv g ](t)

At order pi/2 the chirps drop out and the operation reduces to classical
convolution.  The transform of a fractional convolution factors into a
product of transforms; `spectral_identity_check` and
`scaled_identity_check` verify the unscaled and scaled forms of that
factorization on concrete grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import StepMismatch
from .frft import TransformOrder, _as_order, _direct_apply, _next_fast_len, c_alpha, frft_fast
from .grid import Grid, SampledSignal, grids_close
from .report import VerificationReport

__all__ = [
    "FracConvResult",
    "frac_convolve",
    "spectral_identity_check",
    "scaled_identity_check",
]


@dataclass(frozen=True)
class FracConvResult:
    """Convolution output together with the order it was taken at."""

    signal: SampledSignal
    order: TransformOrder


def _alignment_offsets(f: SampledSignal, g: SampledSignal) -> list[int]:
    """Integer index of g's first sample in units of the shared step.

    Raises StepMismatch when steps differ or g's grid is not offset from
    the origin by a whole number of steps.
    """
    offsets = []
    for ax_f, ax_g in zip(f.grid.axes, g.grid.axes):
        if abs(ax_f.step - ax_g.step) > 1e-12 * ax_f.step:
            raise StepMismatch(
                f"operand steps differ: {ax_f.step} vs {ax_g.step}"
            )
        ratio = ax_g.start / ax_f.step
        l0 = round(ratio)
        if abs(ratio - l0) > 1e-9:
            raise StepMismatch(
                f"operand grid offset {ax_g.start} is not a whole number of steps"
            )
        offsets.append(l0)
    return offsets


def frac_convolve(
    f: SampledSignal, g: SampledSignal, order: "TransformOrder | float"
) -> FracConvResult:
    """Order-alpha convolution, sampled on f's grid.

    g is zero-extended beyond its own grid.  Operand grids must share the
    per-axis step, and g's grid must sit on whole-step coordinates.
    """
    order = _as_order(order)
    if f.ndim != g.ndim:
        raise StepMismatch("operand dimensions differ")
    cot = order.cot
    offsets = _alignment_offsets(f, g)

    chirp = np.exp(0.5j * cot * f.grid.radius_sq())
    u = f.values * chirp * f.grid.weights()
    # full linear convolution: FFTs at fast lengths of at least n + m - 1
    full_shape = [n + m - 1 for n, m in zip(f.grid.shape, g.grid.shape)]
    fast = [_next_fast_len(k) for k in full_shape]
    axes = tuple(range(f.ndim))
    spec = np.fft.fftn(u, fast, axes=axes) * np.fft.fftn(g.values, fast, axes=axes)
    full = np.fft.ifftn(spec, axes=axes, out=spec)
    full = full[tuple(slice(0, k) for k in full_shape)]

    # result index j maps to full-convolution index j - l0 per axis
    out = np.zeros(f.grid.shape, dtype=np.complex128)
    src = []
    dst = []
    for ax in range(f.ndim):
        n = f.grid.shape[ax]
        m = g.grid.shape[ax]
        lo = max(0, offsets[ax])
        hi = min(n - 1, offsets[ax] + n + m - 2)
        if lo > hi:
            src.append(slice(0, 0))
            dst.append(slice(0, 0))
        else:
            dst.append(slice(lo, hi + 1))
            src.append(slice(lo - offsets[ax], hi - offsets[ax] + 1))
    out[tuple(dst)] = full[tuple(src)]
    out = out * np.exp(-0.5j * cot * f.grid.radius_sq())
    return FracConvResult(SampledSignal(f.grid, out), order)


def _chirped(g: SampledSignal, cot: float, sign: float) -> SampledSignal:
    return SampledSignal(g.grid, g.values * np.exp(sign * 0.5j * cot * g.grid.radius_sq()))


def spectral_identity_check(
    f: SampledSignal, g: SampledSignal, order: "TransformOrder | float", tolerance: float = 1e-6
) -> VerificationReport:
    """Transform of the convolution vs the chirped product of transforms.

    Left side: transform of f *_a g on the fast path's natural grid.
    Right side: (1/c) exp(-i/2 |xi|^2 cot) * F[f](xi) * F[chirped g](xi),
    the g factor evaluated by direct quadrature on the same grid.
    """
    order = _as_order(order)
    conv = frac_convolve(f, g, order).signal
    lhs = frft_fast(conv, order)
    f_hat = frft_fast(f, order)
    g_ch = _chirped(g, order.cot, -1.0)
    g_hat = _direct_apply(g_ch.values, g_ch.grid, order, lhs.grid.axis_points())
    out_chirp = np.exp(-0.5j * order.cot * lhs.grid.radius_sq())
    rhs = out_chirp * f_hat.values * g_hat / c_alpha(order, f.ndim)
    peak = float(np.max(np.abs(lhs.values)))
    dev = float(np.max(np.abs(lhs.values - rhs))) / peak
    return VerificationReport(
        name="fracconv_spectral_identity",
        lhs=peak,
        rhs=peak * (1.0 + dev),
        ratio=1.0 + dev,
        tolerance=tolerance,
        passed=dev <= tolerance,
        details={"max_relative_deviation": dev, "alpha": order.alpha},
    )


def _evaluate_scaled(
    g: SampledSignal,
    scale: Sequence[float],
    target: Grid,
    g_eval: Callable[..., np.ndarray] | None,
) -> np.ndarray:
    """Samples of y -> g(y / -a) on the target grid.

    Uses exact index manipulation when every |a_i| is 1, the callable when
    provided, and cubic interpolation otherwise (zero fill off-grid).
    """
    coords = [pts / (-a) for pts, a in zip(target.meshgrid(), scale)]
    if g_eval is not None:
        return np.asarray(g_eval(*coords), dtype=np.complex128)
    if all(abs(abs(a) - 1.0) < 1e-14 for a in scale):
        out = np.zeros(target.shape, dtype=np.complex128)
        idx = []
        ok = np.ones(target.shape, dtype=bool)
        for ax_i, (ax, a) in enumerate(zip(g.grid.axes, scale)):
            q = target.axes[ax_i].points() / (-a)
            j = np.rint((q - ax.start) / ax.step).astype(int)
            exact = np.abs((q - ax.start) / ax.step - j) < 1e-9
            inside = (j >= 0) & (j < ax.count) & exact
            shape = [1] * target.ndim
            shape[ax_i] = -1
            ok &= inside.reshape(shape)
            idx.append(np.clip(j, 0, ax.count - 1))
        gathered = g.values[np.ix_(*idx)]
        out[ok] = gathered[ok]
        return out
    from scipy.interpolate import RegularGridInterpolator

    interp_r = RegularGridInterpolator(
        g.grid.axis_points(), g.values.real, method="cubic", bounds_error=False, fill_value=0.0
    )
    interp_i = RegularGridInterpolator(
        g.grid.axis_points(), g.values.imag, method="cubic", bounds_error=False, fill_value=0.0
    )
    pts = np.stack([c.reshape(-1) for c in coords], axis=1)
    return (interp_r(pts) + 1j * interp_i(pts)).reshape(target.shape)


def scaled_identity_check(
    f: SampledSignal,
    g: SampledSignal,
    scale: Sequence[float],
    order: "TransformOrder | float",
    tolerance: float = 1e-6,
    g_eval: Callable[..., np.ndarray] | None = None,
) -> VerificationReport:
    """Scaled convolution identity.

    Left side: transform at order -alpha of f *_{-alpha} g(./-a).
    Right side: (|a|_p / c(alpha)) exp(-i/2 |a xi|^2 cot(alpha))
                * F_{-alpha}[f](xi) * F_alpha[chirped g](a xi).
    """
    order = _as_order(order)
    scale = tuple(float(a) for a in scale)
    if any(a == 0.0 for a in scale):
        raise ValueError("scale components must be nonzero")
    neg = order.negated()

    h = SampledSignal(f.grid, _evaluate_scaled(g, scale, f.grid, g_eval))
    conv = frac_convolve(f, h, neg).signal
    lhs = frft_fast(conv, neg)

    f_hat = frft_fast(f, neg)
    g_ch = _chirped(g, order.cot, -1.0)
    scaled_points = [a * pts for a, pts in zip(scale, lhs.grid.axis_points())]
    g_hat = _direct_apply(g_ch.values, g_ch.grid, order, scaled_points)

    a_abs = float(np.prod([abs(a) for a in scale]))
    xi_sq = np.zeros(lhs.grid.shape)
    for ax_i, pts in enumerate(lhs.grid.axis_points()):
        shape = [1] * lhs.grid.ndim
        shape[ax_i] = -1
        xi_sq = xi_sq + ((scale[ax_i] * pts) ** 2).reshape(shape)
    rhs = (a_abs / c_alpha(order, f.ndim)) * np.exp(-0.5j * order.cot * xi_sq) * f_hat.values * g_hat

    peak = float(np.max(np.abs(lhs.values)))
    dev = float(np.max(np.abs(lhs.values - rhs))) / peak
    return VerificationReport(
        name="fracconv_scaled_identity",
        lhs=peak,
        rhs=peak * (1.0 + dev),
        ratio=1.0 + dev,
        tolerance=tolerance,
        passed=dev <= tolerance,
        details={"max_relative_deviation": dev, "alpha": order.alpha, "scale": list(scale)},
    )
