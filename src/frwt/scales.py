"""Discrete scale sets for coefficient transforms and resolution sums.

Scale magnitudes are placed at midpoints of a uniform grid in log|a|, so
the quadrature over a magnitude range [a_min, a_max] with M cells is

    integral f(a) da/|a|  ~=  h * sum_m f(a_m),      h = ln(a_max/a_min) / M
    integral f(a) da/a^2  ~=  h * sum_m f(a_m)/a_m,  a_m = a_min e^{(m+1/2)h}

Midpoint placement keeps octave-aligned ranges exactly nested: the cells
of [1/4, 4] at 8 cells per octave are a subset of those of [1/16, 16] at
the same density, which makes resolution energies monotone by
construction (each refinement only adds nonnegative terms).

In n dimensions each axis carries its own scale component; the grid is
the Cartesian product of the per-axis magnitude lists over the requested
sign choices, so with both signs there are (2M)^n scale vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ScaleGrid", "log_scale_grid"]


@dataclass(frozen=True)
class ScaleGrid:
    """A finite set of scale vectors with log-uniform magnitude spacing.

    vectors has shape (S, ndim); log_step is the magnitude spacing h in
    log space, shared by every axis.
    """

    vectors: np.ndarray
    log_step: float
    a_min: float
    a_max: float
    signs: str

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] == 0:
            raise ValueError("scale vectors must form a nonempty (S, ndim) array")
        if np.any(v == 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("scale components must be finite and nonzero")
        object.__setattr__(self, "vectors", v)

    @property
    def ndim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])

    def measure_weights(self) -> np.ndarray:
        """Quadrature weights for the measure da / |a|_p^2 (one da/a_i^2 per axis).

        On the log grid da_i = |a_i| h, so each axis contributes h / |a_i|;
        squaring a_i first would overflow or underflow for legal scales.
        """
        return _measure_weights(self.vectors, self.log_step)

    def log_measure_weights(self) -> np.ndarray:
        """Quadrature weights for the measure da / |a|_p."""
        return np.full(self.count, self.log_step**self.ndim)


def _measure_weights(vectors: np.ndarray, log_step: float) -> np.ndarray:
    """ScaleGrid.measure_weights of the (S, ndim) scale vectors at log_step."""
    return log_step ** vectors.shape[1] / np.prod(np.abs(vectors), axis=1)


def log_scale_grid(
    a_min: float,
    a_max: float,
    cells: int,
    ndim: int = 1,
    signs: str = "both",
) -> ScaleGrid:
    """Build a midpoint log-spaced scale grid over magnitudes [a_min, a_max].

    signs is "both" or "positive".  With "both" each axis
    runs through the negated magnitudes (descending) followed by the
    positive ones (ascending), covering all 2^n orthants of scale space.
    """
    if not (0.0 < a_min < a_max):
        raise ValueError("need 0 < a_min < a_max")
    if cells < 1:
        raise ValueError("need at least one magnitude cell")
    h = math.log(a_max / a_min) / cells
    if not math.isfinite(h):
        raise ValueError(f"log step {h} is not finite: a_max / a_min overflows")
    # base-2 exponent arithmetic: for octave-aligned dyadic ranges the
    # exponents below are exact floats, so nested ranges at equal density
    # share bitwise-identical magnitudes
    lo2, hi2 = math.log2(a_min), math.log2(a_max)
    mags = np.exp2(lo2 + (np.arange(cells) + 0.5) * ((hi2 - lo2) / cells))
    if signs == "both":
        axis = np.concatenate([-mags[::-1], mags])
    elif signs == "positive":
        axis = mags
    else:
        raise ValueError(f"unknown sign choice {signs!r}")
    vectors = np.array(list(itertools.product(axis, repeat=ndim)), dtype=np.float64)
    return ScaleGrid(vectors, h, a_min, a_max, signs)
