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

from typing import Callable, Sequence

import numpy as np

from .errors import StepMismatch
from .frft import TransformOrder, _as_order, _chirp, _direct_apply, _fft_convolve, _next_fast_len, _row_blocks, c_alpha, frft_fast
from .grid import Grid, SampledSignal, _separable
from .report import VerificationReport

__all__ = [
    "frac_convolve",
    "spectral_identity_check",
    "scaled_identity_check",
]


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
) -> SampledSignal:
    """Order-alpha convolution, sampled on f's grid.

    g is zero-extended beyond its own grid.  Operand grids must share the
    per-axis step, and g's grid must sit on whole-step coordinates.
    """
    order = _as_order(order)
    if f.ndim != g.ndim:
        raise StepMismatch("operand dimensions differ")
    cot = order.cot
    offsets = _alignment_offsets(f, g)

    u = f.values * _chirp(f.grid.radius_sq(), cot) * f.grid.weights()
    # full linear convolution: FFTs at fast lengths of at least n + m - 1
    full_shape = [n + m - 1 for n, m in zip(f.grid.shape, g.grid.shape)]
    fast = [_next_fast_len(k) for k in full_shape]
    axes = tuple(range(f.ndim))
    full = _fft_convolve(u, np.fft.fftn(g.values, fast, axes=axes), axes)
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
    out = out * _chirp(f.grid.radius_sq(), -cot)
    return SampledSignal(f.grid, out)


def _factorization_check(
    name: str,
    f: SampledSignal,
    g: SampledSignal,
    order: TransformOrder,
    theta: TransformOrder,
    h: SampledSignal,
    scale: tuple[float, ...],
    details: dict,
) -> VerificationReport:
    """Order-theta transform of f *_theta h against the chirped product

        (|a|_p / c(alpha)) exp(-i/2 |a xi|^2 cot alpha) F_theta[f](xi) F_alpha[chirped g](a xi),

    alpha = order and a = scale, the g factor evaluated by direct
    quadrature; the deviation is relative to the left side's peak.
    """
    lhs = frft_fast(frac_convolve(f, h, theta), theta)
    f_hat = frft_fast(f, theta)
    g_ch = g.values * _chirp(g.grid.radius_sq(), -order.cot)
    scaled_points = [a * pts for a, pts in zip(scale, lhs.grid.axis_points())]
    g_hat = _direct_apply(g_ch, g.grid, order, scaled_points)
    a_abs = float(np.prod([abs(a) for a in scale]))
    xi_sq = _separable([pts**2 for pts in scaled_points])
    rhs = _chirp(xi_sq, -order.cot) * f_hat.values * g_hat / (c_alpha(order, f.ndim) / a_abs)
    peak = float(np.max(np.abs(lhs.values)))
    dev = float(np.max(np.abs(lhs.values - rhs))) / peak
    tolerance = 1e-6
    return VerificationReport(
        name=name,
        lhs=peak,
        rhs=peak * (1.0 + dev),
        ratio=1.0 + dev,
        tolerance=tolerance,
        passed=dev <= tolerance,
        details={"max_relative_deviation": dev, "alpha": order.alpha, **details},
    )


def spectral_identity_check(f: SampledSignal, g: SampledSignal, order: "TransformOrder | float") -> VerificationReport:
    """Transform of the convolution vs the chirped product of transforms.

    Left side: transform of f *_a g on the fast path's natural grid.
    Right side: (1/c) exp(-i/2 |xi|^2 cot) * F[f](xi) * F[chirped g](xi),
    the g factor evaluated by direct quadrature on the same grid.
    """
    order = _as_order(order)
    return _factorization_check("fracconv_spectral_identity", f, g, order, order, g, (1.0,) * f.ndim, {})


def _evaluate_scaled(
    g: SampledSignal,
    scale: Sequence[float],
    target: Grid,
    g_eval: Callable[..., np.ndarray] | None,
) -> np.ndarray:
    """Samples of y -> g(y / -a) on the target grid.

    Uses the callable when provided.  Otherwise each axis is resampled by
    Whittaker-Shannon (sinc) interpolation of g's uniform samples, with
    zero where y / -a lies outside g's grid hull.
    """
    if g_eval is not None:
        coords = [pts / (-a) for pts, a in zip(target.meshgrid(), scale)]
        return np.asarray(g_eval(*coords), dtype=np.complex128)
    out = np.asarray(g.values, dtype=np.complex128)
    for k, (ax, a, tgt) in enumerate(zip(g.grid.axes, scale, target.axes)):
        # target coordinates in units of g's step from its first sample
        u = (tgt.points() / (-a) - ax.start) / ax.step
        inside = (u >= -1e-9) & (u <= ax.count - 1 + 1e-9)
        j = np.arange(ax.count)
        blocks = [
            np.tensordot(np.sinc(u[rows, None] - j) * inside[rows, None], out, axes=(1, k))
            for rows in _row_blocks(u.size, ax.count)
        ]
        out = np.moveaxis(np.concatenate(blocks), 0, k)
    return out


def scaled_identity_check(
    f: SampledSignal,
    g: SampledSignal,
    scale: Sequence[float],
    order: "TransformOrder | float",
    g_eval: Callable[..., np.ndarray] | None = None,
) -> VerificationReport:
    """Scaled convolution identity.

    Left side: transform at order -alpha of f *_{-alpha} g(./-a).
    Right side: (|a|_p / c(alpha)) exp(-i/2 |a xi|^2 cot(alpha))
                * F_{-alpha}[f](xi) * F_alpha[chirped g](a xi).
    """
    order = _as_order(order)
    scale = tuple(float(a) for a in scale)
    if len(scale) != f.ndim:
        raise ValueError(f"scale has {len(scale)} components for a {f.ndim}-d signal")
    if any(a == 0.0 for a in scale):
        raise ValueError("scale components must be nonzero")
    h = SampledSignal(f.grid, _evaluate_scaled(g, scale, f.grid, g_eval))
    return _factorization_check(
        "fracconv_scaled_identity", f, g, order, order.negated(), h, scale, {"scale": list(scale)}
    )
