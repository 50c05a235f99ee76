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
  quadrature to rounding error at O(N log N) cost.  The chirps and phases
  depend only on the grid and the order, so the memo keeps them for a
  stream of signals (see _transform_plan and frwt.memo).
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import functools
import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DeltaKernel, DomainMismatch, NearSingularOrder
from .grid import AxisSpec, Grid, SampledSignal, grids_close
from .memo import memoized

__all__ = [
    "OrderKind",
    "TransformOrder",
    "c_alpha",
    "natural_output_grid",
    "FrftPlan",
    "make_plan",
    "frft_direct",
    "frft_fast",
    "frft_inverse",
]

# Orders closer than this to a multiple of pi are dispatched exactly.
ANGLE_TOL = 1e-12
# Orders within [ANGLE_TOL, NEAR_SINGULAR_TOL) of a multiple of pi are legal
# but numerically fragile; they are flagged with a warning.
NEAR_SINGULAR_TOL = 1e-3
# least kernel matrix bytes per block of output rows in the direct quadrature;
# a floor its bit-identity needs (see _direct_apply), not a memory cap
_KERNEL_BLOCK_BYTES = 1 << 20
# numpy's ufunc buffer size, in elements, inside _short_buffers
_UFUNC_BUFSIZE = 256


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
    if isinstance(order, TransformOrder):
        return order
    alpha = float(order)
    # -0.0 equals 0.0 as a key, so a zero order is built afresh
    return _order_at(alpha) if alpha else TransformOrder(alpha)


@functools.lru_cache(maxsize=256)
def _order_at(alpha: float) -> TransformOrder:
    """TransformOrder(alpha), kept by value: a stream of calls at a few
    orders classifies each once."""
    return TransformOrder(alpha)


def _warn_if_near_singular(order: TransformOrder, stacklevel: int = 3) -> None:
    # stacklevel names the caller of the public entry
    if order.near_singular:
        warnings.warn(
            f"order {order.alpha} is within {NEAR_SINGULAR_TOL} of a multiple of pi; "
            "results may lose precision",
            NearSingularOrder,
            stacklevel=stacklevel,
        )


def c_alpha(order: "TransformOrder | float", ndim: int = 1) -> complex:
    """Kernel normalization, (principal sqrt of (1 - i cot)/(2 pi)) ** ndim."""
    order = _as_order(order)
    order._require_generic()
    return _normalization(order.alpha, ndim)


@functools.lru_cache(maxsize=256)
def _normalization(alpha: float, ndim: int) -> complex:
    """c_alpha at the generic order alpha, kept by value."""
    c1 = np.sqrt((1.0 - 1j * _as_order(alpha).cot) / (2.0 * math.pi))
    return complex(c1**ndim)


def natural_output_grid(grid: Grid, order: "TransformOrder | float") -> Grid:
    """Output grid of the fast path: per axis step 2 pi |sin alpha| / (N dt),
    zero-centered with the input's sample count.  DomainMismatch if Grid
    refuses it (a tiny input step makes |xi|^2 overflow)."""
    order = _as_order(order)
    if order.kind is OrderKind.IDENTITY:
        return grid
    if order.kind is OrderKind.PARITY:
        return grid.reflected()
    s = abs(math.sin(order.alpha))
    axes = []
    try:
        for ax in grid.axes:
            dxi = 2.0 * math.pi * s / (ax.count * ax.step)
            axes.append(AxisSpec(-(ax.count // 2) * dxi, dxi, ax.count))
        return Grid(tuple(axes))
    except ValueError as exc:
        steps = [ax.step for ax in grid.axes]
        raise DomainMismatch(f"no output grid for order {order.alpha} on input steps {steps}: {exc}") from exc


def _chirp(radius_sq: np.ndarray, factor: "float | np.ndarray") -> np.ndarray:
    """exp(i * factor * |t|^2 / 2) at squared radii |t|^2; the sign of the
    phase is carried by factor (cot for the input chirp, -cot for its
    inverse)."""
    return np.exp(0.5j * factor * radius_sq)


@memoized
def _grid_weights(grid: Grid) -> np.ndarray:
    """grid.weights(), shared by every call on grid."""
    return grid.weights()


@memoized
def _grid_chirp(grid: Grid, factor: float) -> np.ndarray:
    """_chirp(grid.radius_sq(), factor), shared by every call on grid at
    factor.  A start of -0.0 gives the chirp of 0.0: no start signs key it."""
    return _chirp(grid.radius_sq(), factor)


def _cis(phase: np.ndarray) -> np.ndarray:
    """cos(phase) + i sin(phase) in a fresh complex array: the bits of
    np.exp(1j * phase) without the complex exponential."""
    out = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


@functools.cache
def _openblas_thread_calls():
    """The get and set thread-count calls and the worker-pool stop of the
    OpenBLAS that numpy bundles, or None where numpy's extension does not
    export them."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        stop = lib.blas_thread_shutdown_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    stop.argtypes, stop.restype = [], ctypes.c_int
    return get, put, stop


@contextlib.contextmanager
def _one_blas_thread(stop_pool: bool = False):
    """Hold numpy's OpenBLAS at one thread inside the block and restore its
    previous count on the way out, after an exception or an interrupt too.

    With stop_pool, OpenBLAS's worker threads are stopped as well: each one
    busy-waits on a CPU for a while after the pool starts or last worked,
    although at one thread it is never given work.  OpenBLAS starts them
    again when the count is raised.
    """
    calls = _openblas_thread_calls()
    previous = calls[0]() if calls else 1
    try:
        if previous != 1:
            calls[1](1)
        if stop_pool and calls:
            calls[2]()
        yield
    finally:
        if previous != 1:
            calls[1](previous)


def _direct_apply(values: np.ndarray, grid: Grid, order: TransformOrder,
                  axes_points: list[np.ndarray]) -> np.ndarray:
    """Kernel quadrature: weighted values contracted with one kernel matrix
    per axis.  axes_points holds the output coordinates for each axis.

    Each kernel matrix is built and applied in blocks of whole rows, as
    many equal blocks of at least _KERNEL_BLOCK_BYTES as fit.  A block of
    that size is a matrix product like the whole matrix (never a one-row
    dot product), and numpy evaluates `c1 * _cis(...)` in place for it as
    it does `c1 * exp(...)` for the whole matrix (a temporary of 256 KiB or
    more is reused, with a rounding that differs from a fresh product), so
    every element is bit-identical to the whole-matrix quadrature.
    """
    cot, csc = order.cot, order.csc
    c1 = c_alpha(order, 1)
    out = values * grid.weights()
    for axis, ax in enumerate(grid.axes):
        t = ax.points()
        xi = np.asarray(axes_points[axis], dtype=np.float64)
        moved = np.moveaxis(out, axis, 0)
        res = np.empty((xi.size,) + moved.shape[1:], dtype=np.complex128)
        blocks = max(1, xi.size // max(2, _KERNEL_BLOCK_BYTES // (16 * t.size)))
        for k in range(blocks):
            rows = slice(xi.size * k // blocks, xi.size * (k + 1) // blocks)
            x = xi[rows]
            phase = 0.5 * (t[None, :] ** 2 + x[:, None] ** 2) * cot - np.outer(x, t) * csc
            kernel = c1 * _cis(phase)
            res[rows] = np.tensordot(kernel, moved, axes=(1, 0))
        out = np.moveaxis(res, 0, axis)
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
        out_grid, values = _transform(f.grid, f.values, order)
        if output_grid is not None and not grids_close(out_grid, output_grid):
            raise DomainMismatch(
                f"{order.kind.value} order requires the input grid or its reflection as output"
            )
        return SampledSignal(out_grid, values)
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
    """The fast path's chirps and phases for grid at order, built afresh
    on every call: the caller owns the plan and its arrays, which are
    writeable.  frft_fast takes its plans from the memo of read-only ones
    instead (see _transform_plan), so a change made to a plan returned
    here never reaches it."""
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
        in_chirp=_chirp(grid.radius_sq(), cot),
        out_chirp=_chirp(out_grid.radius_sq(), cot),
        axis_phases=tuple(phases),
    )


@memoized
def _transform_plan(grid: Grid, alpha: float) -> FrftPlan:
    """make_plan(grid, alpha), shared by every _transform on grid at alpha.
    A start of -0.0 shares the plan of 0.0: the zeros it flips in the
    phases move no output bit."""
    return make_plan(grid, alpha)


def frft_fast(f: SampledSignal, order: "TransformOrder | float") -> SampledSignal:
    """Chirp-FFT-chirp evaluation on the natural output grid.

    Exactly reproduces the direct quadrature sum (same weights, same output
    points) at O(N log N) for any sample counts; identity and parity orders
    dispatch exactly.
    """
    return SampledSignal._trusted(*_transform(f.grid, f.values, order))


def _transform(grid: Grid, values: np.ndarray, order: "TransformOrder | float") -> tuple[Grid, np.ndarray]:
    """Output grid and frft_fast of values over the trailing grid.ndim axes.

    Leading axes are a batch sharing one plan; numpy transforms each row
    on its own, so every row equals frft_fast of its signal.  Identity
    and parity orders copy or mirror the samples exactly.
    """
    order = _as_order(order)
    if order.kind is OrderKind.IDENTITY:
        return grid, values.copy()
    if order.kind is OrderKind.PARITY:
        return grid.reflected(), np.flip(values, axis=tuple(range(-grid.ndim, 0)))
    _warn_if_near_singular(order, stacklevel=4)
    plan = _transform_plan(grid, order.alpha)
    return plan.output_grid, _apply_plan(values, plan)


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


# whether this thread is inside _short_buffers
_buffer_scope = threading.local()


@contextlib.contextmanager
def _short_buffers():
    """Run the body with numpy's ufunc buffers at _UFUNC_BUFSIZE elements.

    numpy's iterator copies a broadcast or strided operand of a
    multi-dimensional ufunc through buffers of bufsize elements, 128 KiB
    each at the default 8192 (a 1 MiB pass's chunk needs two or three).
    At 256 it walks rows of 256 or more elements in place and copies
    shorter ones through 4 KiB; the arithmetic is the same.

    The size is set on entry and restored on exit, one np.setbufsize call
    each; an entry inside an open scope on the same thread changes
    nothing, so a pass opens one scope around all of its helpers.
    """
    if getattr(_buffer_scope, "open", False):
        yield
        return
    previous = np.setbufsize(_UFUNC_BUFSIZE)
    _buffer_scope.open = True
    try:
        yield
    finally:
        _buffer_scope.open = False
        np.setbufsize(previous)


# its ufuncs broadcast or write strided operands
@_short_buffers()
def _fft_convolve(
    operand: np.ndarray,
    kernel_fft: np.ndarray | list[tuple[slice, np.ndarray]],
    axes: tuple[int, ...],
    out: np.ndarray | None = None,
    weights: tuple[np.ndarray, ...] = (),
    acc: np.ndarray | None = None,
    invert: bool = True,
    twins: tuple[list[slice], list[tuple[slice, slice]]] | None = None,
) -> np.ndarray:
    """Circular convolution along axes of operand, zero-padded to the
    lengths of kernel_fft, with the kernel whose spectrum is kernel_fft.

    kernel_fft broadcasts against the padded operand; an operand axis of
    length one (a batch of one signal) broadcasts against every kernel
    row and is transformed once.  kernel_fft may also be a list of
    (rows, spectrum) pieces, rows slices that partition axis 0 of the
    product in order, each spectrum broadcasting against its rows: the
    operand is still padded and transformed once.  weights, if given, are
    a factor broadcasting against the operand, which multiplies it as it
    is written into the padding, then factors of one value per operand
    row, shaped (rows, 1, ..., 1), which multiply the padded rows (the
    padding stays zero while they are finite).  The padded spectrum is
    formed and inverted in place in out, a flat buffer that must not hold
    operand, or in a fresh array; the full padded result is returned (a
    view into out) for the caller to slice.  Reusing one buffer across
    calls spares a fresh, page-faulting allocation per call.

    twins, a pair (live, copies), is for operand rows whose products are
    known to equal those of others: only the operand rows in the slices
    live are weighted, padded, transformed and multiplied (the pieces
    cover only them), and each (dst, src) pair of copies then copies
    product rows src to rows dst, in order.  Rows outside live and not
    copied to are left as they were, for a later call that reads only
    live rows.

    With acc, a padded spectrum shaped like one row along axis 0 of the
    product, the product's rows are added onto acc in row order instead,
    and acc is inverted in place and returned if invert is set, or
    returned still a spectrum for the next call if not.  The rows of a
    stream of calls are thus summed in order, whatever the split, and the
    sum is inverted once.
    """
    pieces = kernel_fft if isinstance(kernel_fft, list) else [(slice(None), kernel_fft)]
    kernel_shape = pieces[0][1].shape
    shape = list(operand.shape)
    for ax in axes:
        shape[ax] = kernel_shape[ax]
    if pieces[0][0] == slice(None):
        full = np.broadcast_shapes(tuple(shape), kernel_shape)
    else:
        count = pieces[-1][0].stop if twins is None else shape[0]
        full = (count,) + np.broadcast_shapes(tuple(shape[1:]), kernel_shape[1:])
    size = math.prod(full)
    result = (np.empty(size, dtype=np.complex128) if out is None else out[:size]).reshape(full)
    spec = result if tuple(shape) == full else np.empty(shape, dtype=np.complex128)
    live, copies = twins or ((slice(None),), ())
    for part in live:
        # the operand rows part, weighted, padded and transformed in place
        block, rows_in, factors = spec, operand, weights[1:]
        if twins is not None:
            block, rows_in, factors = spec[part], operand[part], [w[part] for w in factors]
        head = block[tuple(slice(0, n) for n in rows_in.shape)]
        if weights:
            np.multiply(rows_in, weights[0], out=head)
        else:
            head[...] = rows_in
        for ax in axes:
            pad = [slice(None)] * operand.ndim
            pad[ax] = slice(operand.shape[ax], None)
            block[tuple(pad)] = 0.0
        # the padding too (it stays zero): one contiguous operand
        for w in factors:
            block *= w
        # axis by axis, last first: the rounding of numpy's fftn without
        # its per-call overhead
        for ax in reversed(axes):
            np.fft.fft(block, axis=ax, out=block)
    for rows, kernel in pieces:
        np.multiply(spec if spec is not result else spec[rows], kernel, out=result[rows])
    for dst, src in copies:
        result[dst] = result[src]
    if acc is not None:
        # acc joins the first row, and numpy's reduce over the leading axis
        # of a C-contiguous block adds the rows in order
        result[:1] += acc
        np.add.reduce(result, axis=0, keepdims=True, out=acc)
        result = acc
    if invert:
        # rows neither live nor copied to hold no product
        for part in live if acc is None and not copies else (slice(None),):
            block = result[part]
            for ax in reversed(axes):
                np.fft.ifft(block, axis=ax, out=block)
    return result


# complex bytes per block of rows in the budgeted loops: the coefficient
# pass over scale vectors, the chirp-z over scales and the factored
# Fourier sum over frequencies
_CHUNK_BYTES = 1 << 20


def _row_blocks(count: int, row_elems: int) -> list[slice]:
    """Successive slices over range(count), each of as many rows of
    row_elems complex elements as fit _CHUNK_BYTES (at least one row);
    only the last may be short."""
    step = max(1, _CHUNK_BYTES // (16 * row_elems))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _apply_plan(values: np.ndarray, plan: FrftPlan) -> np.ndarray:
    """Chirp-FFT-chirp over the trailing plan.input_grid.ndim axes of values;
    leading axes are a batch transformed independently.

    The weights are the memo's, which cfrwt's passes over the grid read
    too.  Each axis's FFT runs in place, and its fftshift is folded into
    the phase product: the two halves of the spectrum are multiplied into
    the swapped halves of the other buffer.  Every product keeps the
    operands and the order of weights * in_chirp, fft, fftshift, phase,
    out_chirp, c_alpha."""
    grid = plan.input_grid
    ndim = grid.ndim
    v = values * _grid_weights(grid)
    v *= plan.in_chirp
    shifted = np.empty_like(v)
    forward = plan.order.sin_sign > 0
    for k, ax in enumerate(grid.axes):
        if forward:
            np.fft.fft(v, axis=k - ndim, out=v)
        else:
            np.fft.ifft(v, axis=k - ndim, out=v)
            v *= ax.count
        shape = [1] * ndim
        shape[k] = -1
        phase = plan.axis_phases[k].reshape(shape)
        # fftshift moves sample j to (j + n // 2) mod n
        n, half = ax.count, ax.count // 2
        trail = (slice(None),) * (ndim - 1 - k)
        low, high = (..., slice(0, half)) + trail, (..., slice(half, None)) + trail
        head, tail = (..., slice(0, n - half)) + trail, (..., slice(n - half, None)) + trail
        np.multiply(v[head], phase[high], out=shifted[high])
        np.multiply(v[tail], phase[low], out=shifted[low])
        v, shifted = shifted, v
    v *= plan.out_chirp
    v *= plan.c_alpha
    return v


def frft_inverse(g: SampledSignal, order: "TransformOrder | float") -> SampledSignal:
    """Inverse transform: the fast path at the negated order."""
    return frft_fast(g, _as_order(order).negated())
