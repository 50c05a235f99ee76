"""Differential properties of the planned routes: whatever the grid, the
scale set, the wavelet, the chunk size and the state of the memo,
frft_fast, frft_inverse, the batched _transform, cfrwt_fast and
reconstruct give, as integers, the bits of their unplanned oracles, and
the transforms run the bits of the plan make_plan builds.

Hypothesis draws grids of one to three axes whose starts are +0.0, -0.0
or off the centre; scale sets that are unsorted, with repeated and
mixed-sign components, or log_scale_grid sets, sorted or shuffled, of
either sign choice; the six catalog wavelets and one that is neither even
nor odd; orders past pi or below zero; and _CHUNK_BYTES from one row to
the default.  Before the routes run, the memo is cleared (cold), or holds
what the same routes built on an equal grid, each zero start of the other
sign (warm), or held that and then had it evicted by another grid
(evicted).  Every fifth drawn sample is -0.0, and one coefficient sample
may be moved by one ulp, or be a zero of the other sign, before
reconstruct.
A start of -0.0 flips the signs of zeros in the phases but, on every
input tried, no bit of the transform: c_alpha's nonzero imaginary part
absorbs them.  So a warm grid shares the plan built on its flipped twin,
and the plan that ran is compared with a fresh plan of the grid it was
built on, while the transform must still give its own grid's fresh-plan
bits.

Each route runs twice: the second call must only hit the three plan
memos and give the first call's bits.  On the drawn grids, small enough
for quadrature, the fast routes also match frft_direct and cfrwt_direct
at test_frft's and test_cfrwt's tolerances.

PINNED runs each named input of the bit-pin families in test_cfrwt.py
and test_frft.py (named_inputs.py), the family's own signal and all,
under memo states, routes, chunk sizes, orders and edits that the family
holds fixed.  A falsifying example that Hypothesis finds goes there
too."""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frwt import cache_info, memo
from frwt import cfrwt, frft
from frwt.cfrwt import CfrwtCoefficients, cfrwt_direct, cfrwt_fast, reconstruct
from frwt.frft import _as_order, frft_direct, frft_fast, frft_inverse, make_plan, natural_output_grid
from frwt.grid import AxisSpec, Grid, SampledSignal, sample
from frwt.scales import ScaleGrid, log_scale_grid
from frwt.wavelets import CATALOG

from named_inputs import PERTURBED, gabor_signal, named_grid, named_scales, smooth_signals, twin_signal
from oracles import chirp_fft_chirp, per_vector_cfrwt, per_vector_reconstruct

CROSS = 1.3 - 0.4j
ORDERS = (0.9, 2.2, -1.1, 3.7, -4.0)
MAGNITUDES = (0.3, 0.55, 0.8, 1.3)
# samples per axis at each dimension, small enough for the per-vector and
# quadrature oracles
COUNTS = {1: (8, 48), 2: (5, 16), 3: (4, 8)}
WAVELETS = {**CATALOG, PERTURBED.name: PERTURBED}
MIB = frft._CHUNK_BYTES
# the default; about 8, 3, 2 and 1 rows of the 1-D 256-sample passes; and
# one row of any pass (an odd profile's table then holds a magnitude's two)
CHUNK_BYTES = (MIB, 70_000, 3 * 16 * 512, 20_000, 4096, 100, 16)
PLANS = ("transform_plan", "analysis_plan", "synthesis_plan")
# the frft_direct and cfrwt_direct tolerances of test_frft's and
# test_cfrwt's test_fast_matches_direct_any_length
FRFT_DIRECT_ABS = 1e-10
CFRWT_DIRECT_REL = 1e-12
# 200 drawn examples and the pinned ones take about 1.8 s on a 2-vCPU VM
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


class Case(NamedTuple):
    grid: Grid
    scales: ScaleGrid
    # samples on grid: the single routes, cfrwt_fast and reconstruct take
    # the first, the batched _transform their stack
    signals: tuple[np.ndarray, ...]


class Edit(NamedTuple):
    """What reconstruct's input has in place of cfrwt_fast's field: kind
    is "none", "one-ulp" (a sample of row moved up by one ulp) or
    "signed-zero" (one sample column zeroed, of the other sign in row)."""

    kind: str
    row: int


NO_EDIT = Edit("none", 0)

# each family's signals on a named grid
SIGNALS = {
    "twin": lambda grid: (twin_signal(grid).values,),
    "gabor": lambda grid: (gabor_signal(grid).values,),
    "smooth": lambda grid: tuple(f.values for f in smooth_signals(grid, 3)),
}

# twin: test_cfrwt's bit-pin families; gabor: the 1d-256 case of
# test_fast_is_bitwise_the_per_vector_route; smooth: test_frft's
# test_cold_and_warm_plans_give_the_fresh_plan_bits, which runs no
# scales, so its grids take named_inputs' log_scale_grid ranges.  Orders
# -1.1 and 3.7 have sin(alpha) < 0.
# signal, grid, signs, shuffled, wavelet, order, route, chunk bytes, memo state, edit
PINNED = (
    ("twin", "1d-101", "both", False, "mexican_hat", 0.9, "single", MIB, "cold", Edit("one-ulp", 0)),
    ("twin", "1d-101", "positive", True, "dog4", 2.2, "batched", 100, "warm", Edit("signed-zero", 0)),
    ("twin", "1d-101", "both", True, "mexhat_perturbed", -1.1, "inverse", 16, "evicted", NO_EDIT),
    ("twin", "1d-256", "both", False, "mexican_hat", 0.9, "inverse", MIB, "warm", Edit("one-ulp", 0)),
    ("twin", "1d-256", "both", True, "dog3", 3.7, "batched", 20_000, "evicted", Edit("signed-zero", 127)),
    ("twin", "1d-256", "positive", False, "morlet", -1.1, "single", 4096, "warm", NO_EDIT),
    ("twin", "2d-30x27", "both", True, "mexican_hat", 2.2, "batched", 20_000, "evicted", NO_EDIT),
    ("twin", "2d-30x27", "positive", False, "mexhat_perturbed", 0.9, "inverse", 3 * 16 * 512, "warm", Edit("one-ulp", 1)),
    ("twin", "3d-12x9x7", "both", False, "dog3", 0.9, "single", 100, "warm", Edit("signed-zero", 5)),
    ("twin", "3d-12x9x7", "positive", True, "morlet", -4.0, "inverse", 70_000, "evicted", NO_EDIT),
    ("twin", "start+0", "both", False, "dog3", -1.1, "batched", MIB, "warm", Edit("one-ulp", 3)),
    ("twin", "start-0", "both", False, "dog3", -1.1, "batched", MIB, "warm", Edit("one-ulp", 3)),
    ("twin", "start+0", "both", False, "mexican_hat", 3.7, "inverse", 16, "evicted", NO_EDIT),
    ("twin", "start-0", "both", False, "mexican_hat", 3.7, "inverse", 16, "evicted", NO_EDIT),
    ("gabor", "1d-256", "both", False, "mexican_hat", 0.9, "single", MIB, "warm", Edit("signed-zero", 0)),
    ("gabor", "1d-256", "positive", False, "dog3", 0.9, "batched", 3 * 16 * 512, "evicted", NO_EDIT),
    ("gabor", "1d-256", "both", True, "mexhat_perturbed", 0.9, "inverse", 16, "cold", Edit("one-ulp", 64)),
    ("smooth", "1d-256", "both", False, "gaussian", 2.2, "batched", 100, "evicted", NO_EDIT),
    ("smooth", "1d-101", "positive", False, "dog4", -1.1, "inverse", 16, "warm", Edit("one-ulp", 0)),
    ("smooth", "1d-4096", "both", False, "morlet", 0.9, "single", MIB, "evicted", NO_EDIT),
    ("smooth", "1d-4096", "positive", True, "dog3", -4.0, "batched", MIB, "warm", NO_EDIT),
    ("smooth", "2d-30x27-centred", "both", False, "mexhat_perturbed", 3.7, "inverse", 20_000, "evicted", NO_EDIT),
    ("smooth", "2d-64x63", "positive", False, "dog4", 2.2, "batched", 100, "warm", Edit("signed-zero", 0)),
    ("smooth", "start+0", "both", False, "dog4", -1.1, "single", MIB, "evicted", NO_EDIT),
    ("smooth", "start-0", "both", False, "dog4", -1.1, "single", MIB, "evicted", NO_EDIT),
    ("smooth", "start+0", "both", False, "gaussian", 3.7, "batched", 100, "warm", NO_EDIT),
    ("smooth", "start-0", "both", False, "gaussian", 3.7, "batched", 100, "warm", NO_EDIT),
)


def _pinned(test):
    for signal, grid, signs, shuffled, name, alpha, route, chunk_bytes, state, edit in PINNED:
        g = named_grid(grid)
        case = Case(g, named_scales(grid, signs, shuffled), SIGNALS[signal](g))
        args = dict(name=name, alpha=alpha, route=route, chunk_bytes=chunk_bytes, state=state, edit=edit)
        test = example(case=case, **args)(test)
    return test


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


def _signal(grid: Grid, centre: float) -> np.ndarray:
    f = sample(grid, lambda *t: np.exp(-sum((x - centre) ** 2 for x in t)) * np.exp(1j * (t[0] - 2 * t[-1])))
    f.values.reshape(-1)[::5] = -0.0
    return f.values


def _drawn_signals(grid: Grid) -> tuple[np.ndarray, ...]:
    return tuple(_signal(grid, centre) for centre in (0.2, -0.4, 0.7))


@st.composite
def cases(draw) -> Case:
    """A grid, a scale set of its dimension and the signals, drawn as one
    argument so that examples can give all three."""
    grid = draw(grids())
    ndim = grid.ndim
    if draw(st.booleans()):
        component = st.builds(lambda m, s: s * m, st.sampled_from(MAGNITUDES), st.sampled_from((-1.0, 1.0)))
        rows = draw(st.lists(st.tuples(*[component] * ndim), min_size=1, max_size=6))
        return Case(grid, ScaleGrid(np.array(rows), 0.3, min(MAGNITUDES), max(MAGNITUDES), "both"), _drawn_signals(grid))
    a_max = draw(st.sampled_from(MAGNITUDES[1:]))
    cells = draw(st.integers(1, 3 if ndim == 1 else 1))
    sc = log_scale_grid(MAGNITUDES[0], a_max, cells, ndim, draw(st.sampled_from(("both", "positive"))))
    order = draw(st.permutations(range(sc.count)))
    sc = ScaleGrid(sc.vectors[list(order)], sc.log_step, sc.a_min, sc.a_max, sc.signs)
    return Case(grid, sc, _drawn_signals(grid))


def _flipped_zero_starts(grid: Grid) -> Grid:
    """An equal grid, hash and all, whose zero starts have the other sign."""
    return Grid(tuple(AxisSpec(-ax.start if ax.start == 0.0 else ax.start, ax.step, ax.count) for ax in grid.axes))


def _transform_input(signals: tuple[np.ndarray, ...], route: str) -> np.ndarray:
    return np.stack(signals) if route == "batched" else signals[0]


def _edited(w: CfrwtCoefficients, edit: Edit) -> CfrwtCoefficients:
    if edit.kind == "none":
        return w
    values = w.values.copy()
    rows = values.reshape(len(values), -1)
    row, at = edit.row % len(rows), rows.shape[1] // 2
    if edit.kind == "one-ulp":
        rows[row, at] = complex(np.nextafter(rows[row, at].real, np.inf), rows[row, at].imag)
    else:
        rows[:, at] = 0.0
        rows[row, at] = complex(-0.0, 0.0)
    return CfrwtCoefficients(values, w.b_grid, w.scales, w.order, w.wavelet)


class Run(NamedTuple):
    out_grid: Grid
    spectrum: np.ndarray
    coeffs: CfrwtCoefficients
    field: CfrwtCoefficients
    resynthesis: np.ndarray
    # each spied function's name mapped to its first call's (args, result)
    calls: dict


SPIED = ((frft, "_transform_plan"), (cfrwt, "_analysis_plan"), (cfrwt, "_synthesis_plan"), (cfrwt, "_twin_rows"))


def _routes(grid, signals, psi, alpha, sc, route, edit=NO_EDIT) -> Run:
    """The route's transform of the signals on grid, cfrwt_fast of the
    first and reconstruct of that field after edit."""
    f = SampledSignal(grid, signals[0])
    calls = {}
    saved = [getattr(module, name) for module, name in SPIED]
    for (module, name), real in zip(SPIED, saved):
        setattr(module, name, lambda *args, name=name, real=real: calls.setdefault(name, (args, real(*args)))[1])
    try:
        if route == "batched":
            out_grid, spectrum = frft._transform(grid, _transform_input(signals, route), alpha)
        else:
            g = (frft_inverse if route == "inverse" else frft_fast)(f, alpha)
            out_grid, spectrum = g.grid, g.values
        w = cfrwt_fast(f, psi, alpha, sc)
        field = _edited(w, edit)
        resynthesis = reconstruct(field, psi, psi, cross_value=CROSS).values
    finally:
        for (module, name), real in zip(SPIED, saved):
            setattr(module, name, real)
    return Run(out_grid, spectrum, w, field, resynthesis, calls)


def _plan_counts() -> dict[str, tuple[int, int]]:
    info = cache_info()
    return {name: (info[name].hits, info[name].misses) for name in PLANS}


def _calls(before, after) -> dict[str, tuple[int, int]]:
    return {name: (after[name][0] - before[name][0], after[name][1] - before[name][1]) for name in PLANS}


def _arrays(value):
    """The arrays value holds, through tuples, lists and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


def _plan_arrays(plan) -> list[np.ndarray]:
    return [plan.in_chirp, plan.out_chirp, *plan.axis_phases]


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.uint64)


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(_bits(a), _bits(b))


@PROPERTY
@_pinned
@given(
    case=cases(),
    name=st.sampled_from(sorted(WAVELETS)),
    alpha=st.sampled_from(ORDERS),
    route=st.sampled_from(("single", "batched", "inverse")),
    chunk_bytes=st.sampled_from(CHUNK_BYTES),
    state=st.sampled_from(("cold", "warm", "evicted")),
    edit=st.builds(Edit, st.sampled_from(("none", "one-ulp", "signed-zero")), st.integers(0, 127)),
)
def test_planned_routes_give_the_oracle_bits(case, name, alpha, route, chunk_bytes, state, edit):
    grid, sc, signals = case
    psi = WAVELETS[name]
    f = SampledSignal(grid, signals[0])
    memo._clear()
    budget, chunk = memo._BUDGET_BYTES, frft._CHUNK_BYTES
    frft._CHUNK_BYTES = chunk_bytes
    try:
        if state != "cold":
            _routes(_flipped_zero_starts(grid), signals, psi, alpha, sc, route)
        if state == "evicted":
            # a budget of two floors keeps at most two entries, so the
            # routes on a grid of three samples an axis, no case's, whose
            # transform plan and weights are charged the floor, evict all
            # of this one's
            memo._BUDGET_BYTES = 2 * memo._FLOOR_BYTES
            other = Grid((AxisSpec(0.5, 0.25, 3),) * grid.ndim)
            _routes(other, _drawn_signals(other), psi, alpha, sc, route)
            memo._BUDGET_BYTES = budget
        counts = [_plan_counts()]
        first = _routes(grid, signals, psi, alpha, sc, route, edit)
        counts.append(_plan_counts())
        again = _routes(grid, signals, psi, alpha, sc, route, edit)
        counts.append(_plan_counts())
        chirped = cfrwt._chirped_input(f, _as_order(alpha))
    finally:
        memo._BUDGET_BYTES, frft._CHUNK_BYTES = budget, chunk

    # a warm call only hits, the transform plan of the grid with flipped
    # zero starts among them
    missed = state != "warm"
    assert _calls(*counts[:2]) == dict.fromkeys(PLANS, (0, 1) if missed else (1, 0))
    assert _calls(*counts[1:]) == dict.fromkeys(PLANS, (1, 0))
    assert again.out_grid == first.out_grid
    assert _bit_equal(again.spectrum, first.spectrum)
    assert _bit_equal(again.coeffs.values, first.coeffs.values)
    assert _bit_equal(again.resynthesis, first.resynthesis)
    plans = [first.calls[name][1] for _, name in SPIED[:3]]
    assert not any(array.flags.writeable for plan in plans for array in _arrays(plan))

    angle = -alpha if route == "inverse" else alpha
    fresh = make_plan(grid, angle)
    built = make_plan(_flipped_zero_starts(grid), angle) if state == "warm" else fresh
    assert first.out_grid == natural_output_grid(grid, angle)
    assert all(_bit_equal(a, b) for a, b in zip(_plan_arrays(plans[0]), _plan_arrays(built)))
    assert _bit_equal(first.spectrum, chirp_fft_chirp(_transform_input(signals, route), fresh))
    # the per-vector oracle shares the chirped input, so pin it on its own
    assert _bit_equal(chirped, f.values * grid.weights() * frft._chirp(grid.radius_sq(), _as_order(alpha).cot))
    assert _bit_equal(first.coeffs.values, per_vector_cfrwt(f, psi, alpha, sc))
    assert _bit_equal(first.resynthesis, per_vector_reconstruct(first.field, psi, CROSS))

    # a twin candidate's row is copied exactly when it and its twin's are
    # equal as integers
    (synthesis, step, _), steps = first.calls["_twin_rows"]
    copied = sum(len(range(step)[dst]) for _, twins in steps if twins for dst, _ in twins[1])
    rows = _bits(first.field.values.reshape(sc.count, -1))
    assert copied == sum(np.array_equal(rows[t], rows[s]) for t, s in zip(synthesis.twins, synthesis.twin_of))

    # the drawn grids are small enough for quadrature
    if all(ax.count <= COUNTS[grid.ndim][1] for ax in grid.axes):
        spectrum = first.spectrum.reshape((-1,) + grid.shape)[0]
        assert np.max(np.abs(spectrum - frft_direct(f, angle).values)) < FRFT_DIRECT_ABS
        direct = cfrwt_direct(f, psi, alpha, sc).values
        assert np.max(np.abs(first.coeffs.values - direct)) / np.max(np.abs(direct)) < CFRWT_DIRECT_REL
