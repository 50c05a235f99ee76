"""Differential properties of the planned routes: whatever the grid, the
scale set, the wavelet and the state of the memo, frft_fast, cfrwt_fast
and reconstruct give, as integers, the bits of their unplanned oracles,
and frft_fast runs the bits of the plan make_plan builds.

Hypothesis draws grids of one to three axes whose starts are +0.0, -0.0
or off the centre, unsorted scale sets with repeated and mixed-sign
components, the six catalog wavelets and orders past pi or below zero.
Before the routes run, the memo is cleared (cold), or holds what the same
routes built on an equal grid, each zero start of the other sign (warm),
or held that and then had it evicted by another grid (evicted).  Every
fifth sample is -0.0.  The plan is compared too because a start of -0.0
flips the signs of zeros in the phases but, on every input tried, no bit
of the transform: c_alpha's nonzero imaginary part absorbs them."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frwt import frft, memo
from frwt.cfrwt import cfrwt_fast, reconstruct
from frwt.frft import frft_fast, make_plan
from frwt.grid import AxisSpec, Grid, SampledSignal, sample
from frwt.scales import ScaleGrid
from frwt.wavelets import CATALOG

from oracles import chirp_fft_chirp, per_vector_cfrwt, per_vector_reconstruct

CROSS = 1.3 - 0.4j
ORDERS = (0.9, 2.2, -1.1, 3.7, -4.0)
MAGNITUDES = (0.3, 0.55, 0.8, 1.3)
# samples per axis at each dimension, small enough for the per-vector oracles
COUNTS = {1: (8, 48), 2: (5, 16), 3: (4, 8)}
# 200 examples take about 1.5 s on a 2-vCPU VM
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def grids(draw) -> Grid:
    ndim = draw(st.integers(1, 3))
    axes = []
    for _ in range(ndim):
        count = draw(st.integers(*COUNTS[ndim]))
        step = draw(st.sampled_from((0.1, 0.3, 0.37)))
        centred = -(count // 2) * step
        start = draw(st.sampled_from((0.0, -0.0, centred, centred + 0.3)))
        axes.append(AxisSpec(start, step, count))
    return Grid(tuple(axes))


@st.composite
def scale_sets(draw, ndim: int) -> ScaleGrid:
    component = st.builds(lambda m, s: s * m, st.sampled_from(MAGNITUDES), st.sampled_from((-1.0, 1.0)))
    rows = draw(st.lists(st.tuples(*[component] * ndim), min_size=1, max_size=6))
    return ScaleGrid(np.array(rows), 0.3, min(MAGNITUDES), max(MAGNITUDES), "both")


def _flipped_zero_starts(grid: Grid) -> Grid:
    """An equal grid, hash and all, whose zero starts have the other sign."""
    return Grid(tuple(AxisSpec(-ax.start if ax.start == 0.0 else ax.start, ax.step, ax.count) for ax in grid.axes))


def _signal(grid: Grid) -> SampledSignal:
    f = sample(grid, lambda *t: np.exp(-sum((x - 0.2) ** 2 for x in t)) * np.exp(1j * (t[0] - 2 * t[-1])))
    f.values.reshape(-1)[::5] = -0.0
    return f


def _routes(f, psi, alpha, sc):
    """frft_fast of f and the plan it ran, cfrwt_fast and reconstruct."""
    plans, apply_plan = [], frft._apply_plan
    frft._apply_plan = lambda values, plan: plans.append(plan) or apply_plan(values, plan)
    try:
        spectrum = frft_fast(f, alpha).values
    finally:
        frft._apply_plan = apply_plan
    w = cfrwt_fast(f, psi, alpha, sc)
    return spectrum, plans[0], w, reconstruct(w, psi, psi, cross_value=CROSS).values


def _plan_arrays(plan) -> list[np.ndarray]:
    return [plan.in_chirp, plan.out_chirp, *plan.axis_phases]


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.uint64)


@PROPERTY
@given(
    data=st.data(),
    grid=grids(),
    name=st.sampled_from(sorted(CATALOG)),
    alpha=st.sampled_from(ORDERS),
    state=st.sampled_from(("cold", "warm", "evicted")),
)
def test_planned_routes_give_the_oracle_bits(data, grid, name, alpha, state):
    psi = CATALOG[name]
    sc = data.draw(scale_sets(grid.ndim))
    f = _signal(grid)
    memo._clear()
    budget = memo._BUDGET_BYTES
    try:
        if state != "cold":
            _routes(_signal(_flipped_zero_starts(grid)), psi, alpha, sc)
        if state == "evicted":
            # a budget of two floors keeps at most two entries, so another
            # grid's routes evict all of this one's
            memo._BUDGET_BYTES = 2 * memo._FLOOR_BYTES
            other = Grid(tuple(AxisSpec(ax.start, ax.step, ax.count + 1) for ax in grid.axes))
            _routes(_signal(other), psi, alpha, sc)
        spectrum, plan, w, resynthesis = _routes(f, psi, alpha, sc)
    finally:
        memo._BUDGET_BYTES = budget
    fresh = make_plan(grid, alpha)
    assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(_plan_arrays(plan), _plan_arrays(fresh)))
    assert np.array_equal(_bits(spectrum), _bits(chirp_fft_chirp(f.values, fresh)))
    assert np.array_equal(_bits(w.values), _bits(per_vector_cfrwt(f, psi, alpha, sc)))
    assert np.array_equal(_bits(resynthesis), _bits(per_vector_reconstruct(w, psi, CROSS)))
