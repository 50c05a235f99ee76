"""The memo of signal-free arrays (frwt.memo): one build per key however
many threads miss it, no lane held up by another lane's build, read-only
entries, and a byte budget that bounds what is kept."""

from __future__ import annotations

import dataclasses
import os
import sys
import threading
import time

import numpy as np
import pytest

from frwt import admissibility, cache_info, cfrwt, frft, memo, morrey
from frwt.admissibility import FrequencyScan, cross_admissibility
from frwt.cfrwt import cfrwt_fast, reconstruct
from frwt.frft import TransformOrder, frft_fast, make_plan
from frwt.grid import AxisSpec, Grid, axis_centered, sample
from frwt.morrey import default_morrey_config, morrey_norm
from frwt.scales import log_scale_grid
from frwt.wavelets import get_wavelet

from oracles import chirp_fft_chirp, per_center_morrey_norm, per_vector_cfrwt, per_vector_reconstruct

MEX = get_wavelet("mexican_hat")
DOG4 = get_wavelet("dog4")
ALPHA = 0.9
CROSS = 1.3 - 0.4j
COARSE_SCAN = FrequencyScan(points_per_decade=16, halvings=3)

LINE = Grid((axis_centered(0.1, 64),))
PLANE = Grid((axis_centered(0.4, 30), AxisSpec(-4.0, 0.35, 27)))
SCALES = [log_scale_grid(0.5, 4.0, 4, signs="both"), log_scale_grid(0.25, 2.0, 4, signs="both")]


def _ball_key(grid, radii=None):
    cfg = default_morrey_config(grid, 0.5)
    return (grid, cfg.centers, tuple(sorted(cfg.radii if radii is None else radii)))


def _pass_key(sc, *extra):
    chunks, _, pads = cfrwt._chunk_plan(LINE, sc.count)
    return (LINE, pads, chunks[0].stop, sc.vectors.tobytes(), *extra)


# builder name -> the builder, what its build calls once, as (owner,
# attribute), and two keys of 1-D grids
BUILDERS = {
    "scan": (
        admissibility._scan,
        (admissibility, "_side_grid"),
        [(MEX, DOG4, TransformOrder(a), COARSE_SCAN) for a in (0.7, 0.8)],
    ),
    "analysis_plan": (cfrwt._analysis_plan, (cfrwt, "_tap_layout"), [(MEX, *_pass_key(sc)) for sc in SCALES]),
    "synthesis_plan": (
        cfrwt._synthesis_plan,
        (cfrwt, "_tap_layout"),
        [(MEX, *_pass_key(sc, sc.log_step, 1.0)) for sc in SCALES],
    ),
    "transform_plan": (frft._transform_plan, (frft, "make_plan"), [(LINE, a) for a in (0.9, 2.2)]),
    "grid_chirp": (frft._grid_chirp, (frft, "_chirp"), [(LINE, 0.5), (LINE, -0.5)]),
    "grid_weights": (frft._grid_weights, (Grid, "weights"), [(LINE,), (Grid((axis_centered(0.1, 65),)),)]),
    "ball_orders": (morrey._ball_orders, (morrey, "_center_distances"), [_ball_key(LINE), _ball_key(LINE, (0.5, 1.0, 2.0))]),
}


def test_every_builder_is_listed():
    assert sorted(BUILDERS) == sorted(cache_info())


def _plane_inputs():
    f = sample(PLANE, lambda *t: np.exp(-sum((x - 0.3) ** 2 for x in t)) * np.exp(1j * (t[0] - 2 * t[-1])))
    return f, log_scale_grid(0.5, 4.0, 3, ndim=2, signs="both")


def _public_route(name):
    """A public call that reads the builder's entries on the 2-D grid, the
    bits every call must give, and the entries it keeps."""
    f, sc = _plane_inputs()
    if name == "scan":
        return (lambda: cross_admissibility(MEX, DOG4, 0.7, scan=COARSE_SCAN)), None, 1
    if name == "analysis_plan":
        return (lambda: cfrwt_fast(f, MEX, ALPHA, sc).values), per_vector_cfrwt(f, MEX, ALPHA, sc), 1
    if name == "transform_plan":
        return (lambda: frft_fast(f, ALPHA).values), chirp_fft_chirp(f.values, make_plan(PLANE, ALPHA)), 1
    if name == "ball_orders":
        cfg = default_morrey_config(PLANE, 0.5)
        return (lambda: morrey_norm(f, cfg)), per_center_morrey_norm(f, cfg), 1
    w = cfrwt_fast(f, MEX, ALPHA, sc)
    # the synthesis takes the weights, the +cot and -cot chirps and its plan
    kept = {"synthesis_plan": 1, "grid_chirp": 2, "grid_weights": 1}[name]
    return (lambda: reconstruct(w, MEX, MEX, cross_value=CROSS).values), per_vector_reconstruct(w, MEX, CROSS), kept


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return got == want


def _on_threads(call, want):
    """More threads than CPUs run call three times each, all starting at
    once, with frequent switches; every call must return want."""
    workers = 2 * (os.cpu_count() or 1) + 1
    start = threading.Barrier(workers)
    results = [[] for _ in range(workers)]

    def run(k):
        start.wait(timeout=30)
        for _ in range(3):
            results[k].append(call())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(got) == 3 and all(_same(g, want) for g in got) for got in results)


def _wait_for(condition) -> None:
    deadline = time.monotonic() + 30
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.001)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_threads_share_one_build_and_a_held_build_blocks_no_other_key(name, monkeypatch):
    builder, (owner, attribute), keys = BUILDERS[name]
    calls, entered, release = [], threading.Event(), threading.Event()
    inner = getattr(owner, attribute)

    def held(*args, **kwargs):
        calls.append(threading.current_thread())
        entered.set()
        assert release.wait(timeout=30)
        return inner(*args, **kwargs)

    memo._clear()
    builder(*keys[1])
    monkeypatch.setattr(owner, attribute, held)
    got = {}

    def ask(k):
        got[k] = builder(*keys[0])

    # two threads miss one key: the second waits for the first one's build
    first = threading.Thread(target=ask, args=(0,))
    second = threading.Thread(target=ask, args=(1,))
    first.start()
    try:
        assert entered.wait(timeout=30)
        second.start()
        _wait_for(lambda: cache_info()[name].hits == 1)
        # while that build is held, a hit on the other key returns
        other = threading.Thread(target=lambda: got.setdefault("other", builder(*keys[1])))
        other.start()
        other.join(timeout=30)
        assert not other.is_alive()
    finally:
        release.set()
    for thread in (first, second):
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert len(calls) == 1
    assert got[0] is got[1]
    info = cache_info()[name]
    # the warm-up miss, the shared build's miss; the waiter's hit, the other key's
    assert (info.hits, info.misses, info.entries) == (2, 2, 2)

    # threads build and read the entries of a public route at once, and
    # each gets its bits on every pass
    monkeypatch.setattr(owner, attribute, inner)
    call, want, kept = _public_route(name)
    if want is None:
        want = call()
    memo._clear()
    _on_threads(call, want)
    info = cache_info()[name]
    assert info.misses == info.entries == kept


def _held_arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _held_arrays(item)]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _held_arrays(getattr(value, f.name))]
    return []


@pytest.mark.parametrize("grid", [LINE, PLANE], ids=["1d", "2d"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_kind_of_entry_is_read_only(name, grid):
    """Every array an entry holds is read-only, the tap tables of the pass
    plans among them; a scan holds tuples of numbers."""
    sc = _plane_inputs()[1] if grid is PLANE else SCALES[0]
    chunks, _, pads = cfrwt._chunk_plan(grid, sc.count)
    key = {
        "scan": (MEX, DOG4, TransformOrder(0.7), COARSE_SCAN),
        "analysis_plan": (MEX, grid, pads, chunks[0].stop, sc.vectors.tobytes()),
        "synthesis_plan": (MEX, grid, pads, chunks[0].stop, sc.vectors.tobytes(), sc.log_step, 1.0),
        "transform_plan": (grid, ALPHA),
        "grid_chirp": (grid, -0.5),
        "grid_weights": (grid,),
        "ball_orders": _ball_key(grid),
    }[name]
    entry = BUILDERS[name][0](*key)
    held = _held_arrays(entry)
    if name == "scan":
        assert not held and all(isinstance(part, tuple) for part in entry)
        return
    assert held and not any(a.flags.writeable for a in held)
    for array in held:
        with pytest.raises(ValueError):
            array.reshape(-1)[0] = 0.0
    if name in ("analysis_plan", "synthesis_plan"):
        assert len(entry.tables) == grid.ndim


def test_equal_axes_share_one_tap_table():
    square = Grid((axis_centered(0.25, 32), axis_centered(0.25, 32)))
    sc = log_scale_grid(0.5, 4.0, 3, ndim=2, signs="both")
    chunks, _, pads = cfrwt._chunk_plan(square, sc.count)
    plan = cfrwt._analysis_plan(MEX, square, pads, chunks[0].stop, sc.vectors.tobytes())
    assert plan.tables[0] is plan.tables[1]


def test_an_entry_over_the_budget_is_returned_and_not_kept(monkeypatch):
    grid = Grid((axis_centered(0.05, 128), axis_centered(0.05, 128)))
    memo._clear()
    frft._grid_weights(LINE)
    # the chirp is 256 KiB
    monkeypatch.setattr(memo, "_BUDGET_BYTES", 128 * 1024)
    chirps = [frft._grid_chirp(grid, 0.5) for _ in range(2)]
    assert chirps[0] is not chirps[1]
    assert np.array_equal(chirps[0], frft._chirp(grid.radius_sq(), 0.5))
    assert not chirps[0].flags.writeable
    info = cache_info()
    assert (info["grid_chirp"].misses, info["grid_chirp"].entries) == (2, 0)
    # and it evicts nothing
    assert info["grid_weights"].entries == 1


def test_the_kept_bytes_stay_within_the_budget_over_a_stream_of_grids():
    """Thirty 2-D grids of about 0.6 MiB of plan and weights each, 18 MiB
    in all: the oldest are dropped, and the charges never pass the
    budget."""
    memo._clear()
    for k in range(30):
        grid = Grid((axis_centered(0.05, 128), axis_centered(0.05, 128 + k)))
        frft_fast(sample(grid, lambda x, y: np.exp(-(x**2 + y**2))), ALPHA)
        info = cache_info()
        kept = sum(i.bytes for i in info.values())
        assert kept == memo._charged <= memo._BUDGET_BYTES
    assert info["transform_plan"].misses == 30
    assert info["transform_plan"].entries < 30
    # the newest grid's entries were kept
    assert frft._transform_plan(grid, ALPHA) is frft._transform_plan(grid, ALPHA)
    assert cache_info()["transform_plan"].misses == 30


def test_a_build_that_raises_keeps_nothing(monkeypatch):
    def broken(grid, alpha):
        raise RuntimeError("no plan")

    memo._clear()
    monkeypatch.setattr(frft, "make_plan", broken)
    with pytest.raises(RuntimeError):
        frft._transform_plan(LINE, ALPHA)
    monkeypatch.undo()
    plan = frft._transform_plan(LINE, ALPHA)
    assert frft._transform_plan(LINE, ALPHA) is plan
    assert cache_info()["transform_plan"][:3] == (1, 2, 1)
