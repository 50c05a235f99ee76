"""Uniform tensor-product grids, sampled signals and trapezoidal quadrature.

All transforms in this package operate on signals sampled over uniform
axis-aligned grids in one to three dimensions.  Integrals are approximated
by the tensor product of one-dimensional trapezoidal rules; reductions are
exactly rounded sums (_exact_sum, or _exact_row_sums for a batch of rows),
so results do not depend on chunking.

A per-axis quantity (weights, squared coordinates, a phase, a wavelet
profile) reaches the grid in one way only: _separable combines one 1-D
array per axis into the full grid array with an outer ufunc.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GridMismatch

__all__ = [
    "AxisSpec",
    "Grid",
    "SampledSignal",
    "axis_linspace",
    "axis_centered",
    "integrate",
    "inner_product",
    "l2_norm",
    "l1_norm",
    "sample",
]

MAX_NDIM = 3

# Relative tolerance used when deciding whether two axes coincide.
AXIS_RTOL = 1e-12


@dataclass(frozen=True)
class AxisSpec:
    """One uniform sampling axis: points start + k*step for k in range(count).

    Parameters
    ----------
    start : float
        Coordinate of the first sample.
    step : float
        Spacing between samples, strictly positive.
    count : int
        Number of samples, at least 2.
    """

    start: float
    step: float
    count: int

    def __post_init__(self) -> None:
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"axis step must be positive and finite, got {self.step}")
        if self.count < 2:
            raise ValueError(f"axis needs at least 2 samples, got {self.count}")
        if not math.isfinite(self.start):
            raise ValueError("axis start must be finite")

    @property
    def stop(self) -> float:
        """Coordinate of the last sample."""
        return self.start + (self.count - 1) * self.step

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    def weights(self) -> np.ndarray:
        """Trapezoidal weights; per-axis weights sum to (count-1)*step."""
        w = np.full(self.count, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def reflected(self) -> "AxisSpec":
        """Axis carrying the points {-t : t on this axis}, in increasing order."""
        return AxisSpec(-self.stop, self.step, self.count)

    def isclose(self, other: "AxisSpec") -> bool:
        scale = max(abs(self.start), abs(self.stop), self.step)
        return (
            self.count == other.count
            and abs(self.step - other.step) <= AXIS_RTOL * self.step
            and abs(self.start - other.start) <= AXIS_RTOL * max(scale, 1.0)
        )


def axis_linspace(lo: float, hi: float, count: int) -> AxisSpec:
    """Axis with `count` points from lo to hi inclusive."""
    if count < 2:
        raise ValueError("need at least 2 points")
    return AxisSpec(lo, (hi - lo) / (count - 1), count)


def axis_centered(step: float, count: int) -> AxisSpec:
    """Axis -floor(count/2)*step, ..., with `count` points.

    This centering keeps 0 on the grid and makes the fast transform's
    natural output grid map back onto the input grid under a round trip.
    """
    return AxisSpec(-(count // 2) * step, step, count)


@dataclass(frozen=True)
class Grid:
    """Tensor product of 1 to 3 axes.  Every transform carries the chirp
    exp(i |t|^2 cot(alpha) / 2), so |t|^2 must be finite on the grid."""

    axes: tuple[AxisSpec, ...]

    def __post_init__(self) -> None:
        if not (1 <= len(self.axes) <= MAX_NDIM):
            raise ValueError(f"grid dimension must be 1..{MAX_NDIM}, got {len(self.axes)}")
        object.__setattr__(self, "axes", tuple(self.axes))
        # radius_sq's largest sum, in its axis order (x * x: float ** raises)
        if not math.isfinite(sum(max(ax.start * ax.start, ax.stop * ax.stop) for ax in self.axes)):
            raise ValueError("the largest squared coordinate |t|^2 on the grid is not finite")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def axis_points(self) -> list[np.ndarray]:
        return [ax.points() for ax in self.axes]

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axis_points(), indexing="ij"))

    def weights(self) -> np.ndarray:
        """Full tensor-product trapezoidal weight array, shape == grid shape."""
        return _separable([ax.weights() for ax in self.axes], np.multiply)

    def radius_sq(self) -> np.ndarray:
        """Array of squared Euclidean norms ||t||^2 over the grid."""
        return _separable([pts**2 for pts in self.axis_points()])

    def reflected(self) -> "Grid":
        return Grid(tuple(ax.reflected() for ax in self.axes))


def grids_close(a: Grid, b: Grid) -> bool:
    return a.ndim == b.ndim and all(ax.isclose(bx) for ax, bx in zip(a.axes, b.axes))


def _separable(per_axis: Sequence[np.ndarray], ufunc: np.ufunc = np.add) -> np.ndarray:
    """Grid array of one 1-D array per axis: element (i, j, ...) is
    ufunc(per_axis[0][i], per_axis[1][j], ...), combined in axis order
    (np.add for a sum of squares or a phase, np.multiply for a separable
    product).  A single axis returns its array itself."""
    return functools.reduce(ufunc.outer, per_axis)


class SampledSignal:
    """Complex samples attached to a grid.

    Values are stored as a complex128 array whose shape equals the grid
    shape.  Non-finite samples are rejected at construction.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        self._attach(grid, values)

    @classmethod
    def _trusted(cls, grid: Grid, values: np.ndarray) -> "SampledSignal":
        """The signal of values, a complex128 array of grid's shape that
        the package computed itself: only the finiteness check runs."""
        signal = cls.__new__(cls)
        signal._attach(grid, values)
        return signal

    def _attach(self, grid: Grid, values: np.ndarray) -> None:
        if not np.isfinite(values).all():
            raise ValueError("signal contains non-finite samples")
        self.grid = grid
        self.values = values

    @property
    def ndim(self) -> int:
        return self.grid.ndim

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SampledSignal(ndim={self.ndim}, shape={self.grid.shape})"


def sample(grid: Grid, fn: Callable[..., np.ndarray]) -> SampledSignal:
    """Evaluate fn on the grid. fn receives one coordinate array per axis."""
    return SampledSignal(grid, np.asarray(fn(*grid.meshgrid()), dtype=np.complex128))


def _exact_sum(values: np.ndarray) -> "float | complex":
    """Exactly rounded sum of a real or complex array: math.fsum over the
    real and imaginary parts separately, in C order.  Each part goes to
    fsum as a list, whose floats it reads faster than an array's elements;
    an exactly rounded sum has the same bits either way.

    A part whose sum fsum cannot form (an intermediate overflow, or
    inf + -inf) takes numpy's sum of the same part instead, which is
    then inf or nan, so an unrepresentable sum is a non-finite value
    rather than an exception.
    """
    flat = np.ascontiguousarray(values).reshape(-1)
    sums = []
    for part in (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,):
        try:
            sums.append(math.fsum(part.tolist()))
        except (OverflowError, ValueError):
            with np.errstate(over="ignore", invalid="ignore"):
                sums.append(float(np.sum(part)))
    return complex(*sums) if len(sums) == 2 else sums[0]


# Batches of fewer values take _exact_sum row by row.  The tree's numpy
# calls cost 33 us at 256 values and 47 us at 2048, fsum 6-11 us and
# 48-300 us (one row, narrow to wide exponent ranges; 2-vCPU VM).
_TREE_MIN_VALUES = 2048


def _exact_row_sums(rows: np.ndarray) -> list[float]:
    """_exact_sum of each row of a real 2-D array, with the same bits.

    The rows, zero-padded to a power-of-two width, are reduced together
    by a pairwise tree of Knuth's error-free TwoSum, so a row's exact sum
    is its tree sum s plus the sum of the tree's rounding errors e.  With
    err the float sum of the errors and mag that of their magnitudes,
    hi = s + err and lo = err - (hi - s) (exact when |s| >= |err|) leave
    the exact sum within 4 n 2^-53 mag of hi + lo for a row of n values
    (Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci.
    Comput. 26(6), 2005).  hi is then the exactly rounded sum when that
    interval lies strictly inside hi's rounding interval, whose lower
    half is half as wide when |hi| is a power of two.  Every other row
    takes _exact_sum: a zero or non-finite hi, a sum too close to a
    rounding boundary, and a row whose sum of |x| may reach 2^1020, where
    math.fsum can overflow between two finite values and _exact_sum
    gives numpy's sum instead.
    """
    m, n = rows.shape
    if m * n < _TREE_MIN_VALUES:
        return [_exact_sum(row) for row in rows]
    width = 1 << (n - 1).bit_length()
    s = rows
    if width != n:
        s = np.zeros((m, width))
        s[:, :n] = rows
    # the errors of the level of width w go to columns w - 1 to 2w - 2
    errors = np.empty((m, width - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        while width > 1:
            width //= 2
            a, b = s[:, :width], s[:, width:]
            s = a + b
            z = s - a
            errors[:, width - 1 : 2 * width - 1] = (a - (s - z)) + (b - z)
        s = s[:, 0]
        err = errors.sum(axis=1)
        mag = np.abs(errors).sum(axis=1)
        hi = s + err
        lo = err - (hi - s)
        # nan for a non-finite hi, and 0 (no row passes) for |hi| < 2^-1021
        half_gap = np.spacing(np.abs(hi)) * np.where(np.abs(np.frexp(hi)[0]) == 0.5, 0.25, 0.5)
        exact = (
            (np.abs(lo) + mag * (4 * n * 2.0**-53) < half_gap)
            & (np.abs(s) >= np.abs(err))
            & (n * np.abs(rows).max(axis=1) < 2.0**1020)
        )
    sums = hi.tolist()
    for i in np.flatnonzero(~exact).tolist():
        sums[i] = _exact_sum(rows[i])
    return sums


def integrate(f: SampledSignal) -> complex:
    """Trapezoidal approximation of the integral of f over its grid."""
    return _exact_sum(f.grid.weights() * f.values)


def _require_same_grid(f: SampledSignal, g: SampledSignal) -> None:
    if not grids_close(f.grid, g.grid):
        raise GridMismatch("signals live on different grids")


def inner_product(f: SampledSignal, g: SampledSignal) -> complex:
    """<f, g> = integral of f * conj(g); conjugate-linear in g."""
    _require_same_grid(f, g)
    return _exact_sum(f.grid.weights() * f.values * np.conj(g.values))


def l2_norm(f: SampledSignal) -> float:
    w = f.grid.weights()
    return math.sqrt(_exact_sum(w * (f.values.real**2 + f.values.imag**2)))


def l1_norm(f: SampledSignal) -> float:
    return _exact_sum(f.grid.weights() * np.abs(f.values))
