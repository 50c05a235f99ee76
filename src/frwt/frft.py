"""Fractional Fourier transform on sampled grids.

The transform of order alpha acts on a signal through the chirp kernel

    K(t, xi) = c(alpha) * exp(i/2 (|t|^2 + |xi|^2) cot(alpha) - i <t, xi> csc(alpha))

with c(alpha) the per-dimension principal root of (1 - i cot(alpha)) / (2 pi).
At integer multiples of pi the kernel degenerates to a delta and the
transform is dispatched exactly: the even multiples give the identity, the
odd multiples give the parity flip.

Two evaluation routes are provided and kept deliberately independent:

* ``frft_direct`` performs trapezoidal quadrature of the kernel integral,
  one kernel matrix per axis.  It accepts any uniform output grid and is
  the reference the fast path is tested against.
* ``frft_fast`` factors the kernel into input chirp, classical FFT and
  output chirp.  On the natural output grid it reproduces the direct
  quadrature to rounding error at O(N log N) cost.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DeltaKernel, DomainMismatch, NearSingularOrder, OffGridShift
from .grid import AxisSpec, Grid, SampledSignal, grids_close

__all__ = [
    "OrderKind",
    "TransformOrder",
    "c_alpha",
    "kernel_eval",
    "natural_output_grid",
    "FrftPlan",
    "make_plan",
    "frft_direct",
    "frft_fast",
    "frft_inverse",
    "Translate",
    "Modulate",
    "Dilate",
    "apply_operator",
]

# Orders closer than this to a multiple of pi are dispatched exactly.
ANGLE_TOL = 1e-12
# Orders within [ANGLE_TOL, NEAR_SINGULAR_TOL) of a multiple of pi are legal
# but numerically fragile; they are flagged with a warning.
NEAR_SINGULAR_TOL = 1e-3


class OrderKind(enum.Enum):
    GENERIC = "generic"
    IDENTITY = "identity"
    PARITY = "parity"


@dataclass(frozen=True)
class TransformOrder:
    """Transform order (angle) with its exact-dispatch classification."""

    alpha: float
    kind: OrderKind = field(init=False)
    near_singular: bool = field(init=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ValueError("order must be finite")
        dist = abs(math.remainder(self.alpha, math.pi))
        if dist < ANGLE_TOL:
            r2 = math.remainder(self.alpha, 2.0 * math.pi)
            kind = OrderKind.IDENTITY if abs(r2) < 1.0 else OrderKind.PARITY
        else:
            kind = OrderKind.GENERIC
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self, "near_singular", kind is OrderKind.GENERIC and dist < NEAR_SINGULAR_TOL
        )

    @property
    def is_generic(self) -> bool:
        return self.kind is OrderKind.GENERIC

    @property
    def cot(self) -> float:
        self._require_generic()
        return math.cos(self.alpha) / math.sin(self.alpha)

    @property
    def csc(self) -> float:
        self._require_generic()
        return 1.0 / math.sin(self.alpha)

    @property
    def sin_sign(self) -> int:
        return 1 if math.sin(self.alpha) > 0 else -1

    def negated(self) -> "TransformOrder":
        return TransformOrder(-self.alpha)

    def _require_generic(self) -> None:
        if not self.is_generic:
            raise DeltaKernel(
                f"order {self.alpha} is a multiple of pi; the kernel is a delta "
                "and the transform must use the exact identity/parity dispatch"
            )


def _as_order(order: "TransformOrder | float") -> TransformOrder:
    return order if isinstance(order, TransformOrder) else TransformOrder(float(order))


def _warn_if_near_singular(order: TransformOrder) -> None:
    if order.near_singular:
        warnings.warn(
            f"order {order.alpha} is within {NEAR_SINGULAR_TOL} of a multiple of pi; "
            "results may lose precision",
            NearSingularOrder,
            stacklevel=3,
        )


def c_alpha(order: "TransformOrder | float", ndim: int = 1) -> complex:
    """Kernel normalization, (principal sqrt of (1 - i cot)/(2 pi)) ** ndim."""
    order = _as_order(order)
    order._require_generic()
    c1 = np.sqrt((1.0 - 1j * order.cot) / (2.0 * math.pi))
    return complex(c1**ndim)


def kernel_eval(
    t: np.ndarray, xi: np.ndarray, order: "TransformOrder | float", ndim: int = 1
) -> np.ndarray:
    """Evaluate the chirp kernel at points (t, xi).

    For ndim == 1 the inputs are broadcast arrays of coordinates.  For
    ndim > 1 the trailing axis of each input must hold the coordinate
    vector.  Raises DeltaKernel at identity/parity orders, where the
    kernel is a distribution rather than a function.
    """
    order = _as_order(order)
    order._require_generic()
    t = np.asarray(t, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    if ndim == 1:
        tt, xx, dot = t**2, xi**2, t * xi
    else:
        if t.shape[-1] != ndim or xi.shape[-1] != ndim:
            raise ValueError(f"trailing axis must have length {ndim}")
        tt = np.sum(t**2, axis=-1)
        xx = np.sum(xi**2, axis=-1)
        dot = np.sum(t * xi, axis=-1)
    phase = 0.5 * (tt + xx) * order.cot - dot * order.csc
    return c_alpha(order, ndim) * np.exp(1j * phase)


def natural_output_grid(grid: Grid, order: "TransformOrder | float") -> Grid:
    """Output grid of the fast path: per axis step 2 pi |sin alpha| / (N dt),
    zero-centered with the input's sample count."""
    order = _as_order(order)
    if order.kind is OrderKind.IDENTITY:
        return grid
    if order.kind is OrderKind.PARITY:
        return grid.reflected()
    s = abs(math.sin(order.alpha))
    axes = []
    for ax in grid.axes:
        dxi = 2.0 * math.pi * s / (ax.count * ax.step)
        axes.append(AxisSpec(-(ax.count // 2) * dxi, dxi, ax.count))
    return Grid(tuple(axes))


def _chirp(grid: Grid, factor: float) -> np.ndarray:
    """exp(i * factor * |t|^2 / 2) over the grid."""
    return np.exp(0.5j * factor * grid.radius_sq())


def _dispatch_delta(f: SampledSignal, order: TransformOrder, output_grid: Grid | None) -> SampledSignal:
    if order.kind is OrderKind.IDENTITY:
        if output_grid is not None and not grids_close(f.grid, output_grid):
            raise DomainMismatch("identity order requires the input grid as output")
        return f.copy()
    target = f.grid.reflected()
    if output_grid is not None and not grids_close(target, output_grid):
        raise DomainMismatch("parity order requires the reflected input grid as output")
    return SampledSignal(target, np.flip(f.values))


def _direct_apply(values: np.ndarray, grid: Grid, order: TransformOrder,
                  axes_points: list[np.ndarray]) -> np.ndarray:
    """Kernel quadrature: weighted values contracted with one kernel matrix
    per axis.  axes_points holds the output coordinates for each axis."""
    cot, csc = order.cot, order.csc
    c1 = complex(np.sqrt((1.0 - 1j * cot) / (2.0 * math.pi)))
    out = values * grid.weights()
    for axis, ax in enumerate(grid.axes):
        t = ax.points()
        xi = np.asarray(axes_points[axis], dtype=np.float64)
        phase = 0.5 * (t[None, :] ** 2 + xi[:, None] ** 2) * cot - np.outer(xi, t) * csc
        kernel = c1 * np.exp(1j * phase)
        out = np.moveaxis(np.tensordot(kernel, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


def frft_direct(
    f: SampledSignal,
    order: "TransformOrder | float",
    output_grid: Grid | None = None,
) -> SampledSignal:
    """Transform by trapezoidal quadrature of the kernel integral.

    O(N^2) per axis; the reference implementation.  `output_grid` may be
    any uniform grid of matching dimension and defaults to the natural
    fast-path grid.
    """
    order = _as_order(order)
    if not order.is_generic:
        return _dispatch_delta(f, order, output_grid)
    _warn_if_near_singular(order)
    if output_grid is None:
        output_grid = natural_output_grid(f.grid, order)
    if output_grid.ndim != f.ndim:
        raise DomainMismatch("output grid dimension differs from input")
    out = _direct_apply(f.values, f.grid, order, output_grid.axis_points())
    return SampledSignal(output_grid, out)


@dataclass(frozen=True)
class FrftPlan:
    """Precomputed chirps and phases for the fast path on one grid."""

    order: TransformOrder
    input_grid: Grid
    output_grid: Grid
    c_alpha: complex
    in_chirp: np.ndarray
    out_chirp: np.ndarray
    axis_phases: tuple[np.ndarray, ...]


def make_plan(grid: Grid, order: "TransformOrder | float") -> FrftPlan:
    order = _as_order(order)
    order._require_generic()
    out_grid = natural_output_grid(grid, order)
    cot, csc = order.cot, order.csc
    phases = []
    for ax_in, ax_out in zip(grid.axes, out_grid.axes):
        xi = ax_out.points()
        phases.append(np.exp(-1j * ax_in.start * csc * xi))
    return FrftPlan(
        order=order,
        input_grid=grid,
        output_grid=out_grid,
        c_alpha=c_alpha(order, grid.ndim),
        in_chirp=_chirp(grid, cot),
        out_chirp=_chirp(out_grid, cot),
        axis_phases=tuple(phases),
    )


def frft_fast(
    f: SampledSignal,
    order: "TransformOrder | float",
    plan: FrftPlan | None = None,
) -> SampledSignal:
    """Chirp-FFT-chirp evaluation on the natural output grid.

    Exactly reproduces the direct quadrature sum (same weights, same output
    points) at O(N log N) for any sample counts; identity and parity orders
    dispatch exactly.
    """
    order = _as_order(order)
    if not order.is_generic:
        return _dispatch_delta(f, order, None)
    _warn_if_near_singular(order)
    if plan is None:
        plan = make_plan(f.grid, order)
    elif not grids_close(plan.input_grid, f.grid) or plan.order != order:
        raise DomainMismatch("plan was built for a different grid or order")
    return SampledSignal(plan.output_grid, _apply_plan(f.values, plan))


@functools.lru_cache(maxsize=64)
def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n, a padded length that numpy.fft
    splits into its fast radix passes (scipy.fft.next_fast_len's rule).

    Memoized, since the fast routes ask for the same few lengths on every
    call and the search costs tens of microseconds.
    """
    best = 1 << max(0, n - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    # times the smallest power of two that reaches n
                    best = min(best, p3 << (-(-n // p3) - 1).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _apply_plan(values: np.ndarray, plan: FrftPlan) -> np.ndarray:
    """Chirp-FFT-chirp over the trailing plan.input_grid.ndim axes of values;
    leading axes are a batch transformed independently."""
    ndim = plan.input_grid.ndim
    v = values * plan.input_grid.weights() * plan.in_chirp
    forward = plan.order.sin_sign > 0
    for k, ax in enumerate(plan.input_grid.axes):
        axis = k - ndim
        if forward:
            v = np.fft.fft(v, axis=axis)
        else:
            v = np.fft.ifft(v, axis=axis) * ax.count
        v = np.fft.fftshift(v, axes=axis)
        shape = [1] * ndim
        shape[k] = -1
        v = v * plan.axis_phases[k].reshape(shape)
    return v * plan.out_chirp * plan.c_alpha


def frft_inverse(
    g: SampledSignal, order: "TransformOrder | float", plan: FrftPlan | None = None
) -> SampledSignal:
    """Inverse transform: the fast path at the negated order."""
    return frft_fast(g, _as_order(order).negated(), plan)


# ---------------------------------------------------------------------------
# Structure operators


@dataclass(frozen=True)
class Translate:
    """f(t + eta) * exp(i <t, eta> cot(alpha)); eta must sit on the grid."""

    eta: tuple[float, ...]
    order: TransformOrder


@dataclass(frozen=True)
class Modulate:
    """exp(i <t, eta> csc(alpha) + i/2 |eta|^2 cot(alpha)) * f(t)."""

    eta: tuple[float, ...]
    order: TransformOrder


@dataclass(frozen=True)
class Dilate:
    """f(a t) with every |a_i| = 1, so resampling stays exact."""

    factors: tuple[float, ...]


def _shift_with_zero_fill(values: np.ndarray, axis: int, m: int) -> np.ndarray:
    # out[j] = in[j + m], zero outside the sampled window
    out = np.zeros_like(values)
    n = values.shape[axis]
    if abs(m) >= n:
        return out
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if m >= 0:
        dst[axis] = slice(0, n - m)
        src[axis] = slice(m, n)
    else:
        dst[axis] = slice(-m, n)
        src[axis] = slice(0, n + m)
    out[tuple(dst)] = values[tuple(src)]
    return out


def apply_operator(f: SampledSignal, op: "Translate | Modulate | Dilate") -> SampledSignal:
    """Apply a translation, modulation or unit dilation to a signal."""
    if isinstance(op, Translate):
        if len(op.eta) != f.ndim:
            raise ValueError("eta dimension mismatch")
        values = f.values
        for axis, (ax, eta_i) in enumerate(zip(f.grid.axes, op.eta)):
            ratio = eta_i / ax.step
            m = round(ratio)
            if abs(ratio - m) > 1e-9:
                raise OffGridShift(
                    f"translation {eta_i} is not an integer multiple of step {ax.step}"
                )
            if m:
                values = _shift_with_zero_fill(values, axis, m)
        cot = op.order.cot
        phase = np.zeros(f.grid.shape)
        for axis, (pts, eta_i) in enumerate(zip(f.grid.axis_points(), op.eta)):
            shape = [1] * f.ndim
            shape[axis] = -1
            phase = phase + (pts * eta_i).reshape(shape)
        return SampledSignal(f.grid, values * np.exp(1j * cot * phase))

    if isinstance(op, Modulate):
        if len(op.eta) != f.ndim:
            raise ValueError("eta dimension mismatch")
        cot, csc = op.order.cot, op.order.csc
        dot = np.zeros(f.grid.shape)
        for axis, (pts, eta_i) in enumerate(zip(f.grid.axis_points(), op.eta)):
            shape = [1] * f.ndim
            shape[axis] = -1
            dot = dot + (pts * eta_i).reshape(shape)
        eta_sq = sum(e * e for e in op.eta)
        return SampledSignal(f.grid, f.values * np.exp(1j * (csc * dot + 0.5 * cot * eta_sq)))

    if isinstance(op, Dilate):
        if len(op.factors) != f.ndim:
            raise ValueError("dilation dimension mismatch")
        if any(abs(abs(a) - 1.0) > 1e-12 for a in op.factors):
            raise ValueError("dilation factors must have unit modulus")
        values = f.values
        axes = []
        for axis, (ax, a) in enumerate(zip(f.grid.axes, op.factors)):
            if a < 0:
                values = np.flip(values, axis=axis)
                axes.append(ax.reflected())
            else:
                axes.append(ax)
        return SampledSignal(Grid(tuple(axes)), values.copy())

    raise TypeError(f"unsupported operator {type(op)!r}")
