"""Checks for the fractional Fourier engine: kernel normalization,
fast/direct routes and exact dispatch."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frwt.errors import DeltaKernel, DomainMismatch, NearSingularOrder
from frwt import cache_info, memo
from frwt import frft as frft_module
from frwt.frft import (
    OrderKind,
    TransformOrder,
    _as_order,
    _next_fast_len,
    _transform,
    c_alpha,
    frft_direct,
    frft_fast,
    frft_inverse,
    make_plan,
    natural_output_grid,
)
from frwt.grid import AxisSpec, Grid, SampledSignal, axis_centered, l1_norm, l2_norm, sample

from conftest import random_smooth_signal
from oracles import brute_kernel_transform, chirp_fft_chirp, classical_unitary_ft, dense_direct_apply
from named_inputs import named_grid, smooth_signals

# |c(pi/4)| = 2**0.25 / sqrt(2*pi), computed in closed form
C_PI_QUARTER_ABS = 0.4744249983287943

FIVE_ORDERS = (0.35, 1.2, math.pi / 2, 2.4, -0.8)


# ---------------------------------------------------------------------------
# order classification


@pytest.mark.parametrize(
    "alpha,kind",
    [
        (0.0, OrderKind.IDENTITY),
        (2 * math.pi, OrderKind.IDENTITY),
        (-4 * math.pi, OrderKind.IDENTITY),
        (math.pi, OrderKind.PARITY),
        (3 * math.pi, OrderKind.PARITY),
        (-math.pi, OrderKind.PARITY),
        (1e-13, OrderKind.IDENTITY),
        (math.pi + 1e-13, OrderKind.PARITY),
        (0.5, OrderKind.GENERIC),
    ],
)
def test_order_classification(alpha, kind):
    assert TransformOrder(alpha).kind is kind


def test_near_singular_flag():
    assert TransformOrder(1e-6).near_singular
    assert not TransformOrder(0.5).near_singular
    assert not TransformOrder(1e-13).near_singular  # exact dispatch instead


def test_near_singular_warning_emitted(grid_256, gaussian_256):
    with pytest.warns(NearSingularOrder):
        frft_fast(gaussian_256, 1e-5)


# ---------------------------------------------------------------------------
# kernel


def test_c_alpha_modulus():
    for alpha in (0.4, 1.0, 2.0, -0.9):
        for n in (1, 2, 3):
            expected = (abs(1 / math.sin(alpha)) / (2 * math.pi)) ** (n / 2)
            assert abs(c_alpha(alpha, n)) == pytest.approx(expected, rel=1e-12)
    assert c_alpha(math.pi / 2, 1) == pytest.approx(1 / math.sqrt(2 * math.pi))
    # the kernel's modulus is |c(alpha)| at every (t, xi)
    assert abs(c_alpha(math.pi / 4)) == pytest.approx(C_PI_QUARTER_ABS, rel=1e-12)


def test_c_alpha_delta_orders_raise():
    for alpha in (0.0, math.pi, -2 * math.pi):
        with pytest.raises(DeltaKernel):
            c_alpha(alpha)


def test_kernel_semigroup_on_gaussian(grid_256, gaussian_256):
    # composing two transforms equals the sum-order transform, checked
    # against the direct route on the composed output grid
    f = random_smooth_signal(grid_256, seed=7)
    a, b = 0.9, 0.8
    two_step = frft_fast(frft_fast(f, a), b)
    one_step = frft_direct(f, a + b, two_step.grid)
    num = math.sqrt(float(np.sum(two_step.grid.weights() * np.abs(two_step.values - one_step.values) ** 2)))
    assert num / l2_norm(f) < 1e-6


# ---------------------------------------------------------------------------
# transforms


def test_gaussian_fixed_point_direct(grid_256, gaussian_256):
    out = frft_direct(gaussian_256, math.pi / 3)
    xi = out.grid.axis_points()[0]
    assert np.max(np.abs(out.values - np.exp(-(xi**2) / 2))) < 1e-6


def test_gaussian_fixed_point_fast_many_orders(grid_256, gaussian_256):
    for alpha in (math.pi / 3, 0.7, 1.9, -1.2, 2.8):
        out = frft_fast(gaussian_256, alpha)
        xi = out.grid.axis_points()[0]
        assert np.max(np.abs(out.values - np.exp(-(xi**2) / 2))) < 1e-8


def test_classical_limit_is_unitary_ft(grid_256, gaussian_256):
    f = random_smooth_signal(grid_256, seed=3)
    out = frft_fast(f, math.pi / 2)
    expected = classical_unitary_ft(f, out.grid.axis_points()[0])
    assert np.max(np.abs(out.values - expected)) < 1e-10


def test_fast_matches_direct_1d():
    g = Grid((axis_centered(0.25, 64),))
    f = random_smooth_signal(g, seed=11)
    for alpha in (0.35, 1.2, -0.8):
        fast = frft_fast(f, alpha)
        direct = frft_direct(f, alpha)
        assert np.max(np.abs(fast.values - direct.values)) < 1e-10


def test_fast_matches_direct_2d():
    g = Grid((axis_centered(0.5, 32), axis_centered(0.4, 32)))
    f = random_smooth_signal(g, seed=19)
    for alpha in (0.6, 2.0):
        fast = frft_fast(f, alpha)
        direct = frft_direct(f, alpha)
        assert np.max(np.abs(fast.values - direct.values)) < 1e-10


def test_direct_matches_brute_tensor_kernel():
    # separable per-axis contraction vs the full tensor kernel sum
    g = Grid((axis_centered(0.6, 12), axis_centered(0.5, 10)))
    f = sample(g, lambda x, y: np.exp(-(x**2 + y**2) / 2) * (1 + 0.3j * x - 0.2 * y))
    out_grid = natural_output_grid(g, 0.9)
    direct = frft_direct(f, 0.9, out_grid)
    brute = brute_kernel_transform(f, 0.9, out_grid)
    assert np.max(np.abs(direct.values - brute)) < 1e-12


@pytest.mark.parametrize(
    "axes,block_bytes",
    [
        ((axis_centered(0.1, 64),), None),
        ((AxisSpec(-3.0, 0.07, 101),), None),
        ((axis_centered(0.02, 512),), None),
        ((axis_centered(0.01, 1024),), None),
        # 54-row blocks would leave a last block of 12 rows
        ((AxisSpec(-5.0, 0.009, 1200),), None),
        ((axis_centered(0.3, 32), axis_centered(0.25, 32)), 16 * 7 * 32),
        ((axis_centered(0.4, 30), AxisSpec(-4.0, 0.35, 27)), 16 * 7 * 30),
        ((axis_centered(0.04, 300), AxisSpec(-5.0, 0.04, 280)), None),
    ],
    ids=["64", "101", "512", "1024", "1200", "32x32-7-rows", "30x27-7-rows", "300x280"],
)
def test_direct_blocks_are_bit_identical_to_dense_kernel(axes, block_bytes, monkeypatch):
    """Building the kernel in row blocks changes no bit of frft_direct:
    every element is the same expression contracted the same way."""
    if block_bytes is not None:
        monkeypatch.setattr(frft_module, "_KERNEL_BLOCK_BYTES", block_bytes)
    g = Grid(axes)
    f = random_smooth_signal(g, seed=g.size)
    for alpha in (0.3, 0.9, math.pi / 2, 2.2, 2.9, -0.7, 4.0):
        out = frft_direct(f, alpha)
        dense = dense_direct_apply(f.values, g, alpha, out.grid.axis_points())
        assert np.array_equal(out.values, dense)


# a 2-D direct transform whose axes both split into row blocks, against the
# whole-matrix formula, in a process with OpenBLAS at one thread: the bits
# of a matrix operand's products depend on OpenBLAS's thread count
_SPLIT_2D = """
import collections, json, math, sys
import numpy as np
from frwt import frft
from frwt.grid import AxisSpec, Grid, axis_centered
from conftest import random_smooth_signal
from oracles import dense_direct_apply

rows, cols, step, block_bytes = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
frft._KERNEL_BLOCK_BYTES = block_bytes
g = Grid((axis_centered(step, rows), AxisSpec(-5.0, step, cols)))
f = random_smooth_signal(g, seed=g.size)
blocks = collections.Counter()
real_cis = frft._cis

def cis(phase):
    blocks[phase.shape[1]] += 1
    return real_cis(phase)

frft._cis = cis
equal = []
for alpha in (0.3, 0.9, math.pi / 2, 2.2, -0.7):
    out = frft.frft_direct(f, alpha)
    equal.append(bool(np.array_equal(out.values, dense_direct_apply(f.values, g, alpha, out.grid.axis_points()))))
print(json.dumps({"equal": equal, "blocks": [blocks[rows] // 5, blocks[cols] // 5]}))
"""


@pytest.mark.parametrize(
    "rows,cols,step,block_bytes,blocks",
    [
        # a floor of 55 rows, the fewest whose kernel block reaches numpy's
        # 256 KiB threshold for evaluating `c1 * <temporary>` in place
        (300, 280, 0.04, 16 * 55 * 300, [5, 4]),
        (600, 500, 0.02, frft_module._KERNEL_BLOCK_BYTES, [5, 3]),
    ],
    ids=["300x280-55-rows", "600x500"],
)
def test_split_2d_direct_blocks_are_bit_identical_to_dense_kernel_at_one_openblas_thread(
    rows, cols, step, block_bytes, blocks
):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "tests"), env.get("PYTHONPATH", "")])
    argv = [sys.executable, "-c", _SPLIT_2D, str(rows), str(cols), str(step), str(block_bytes)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["blocks"] == blocks
    assert found["equal"] == [True] * 5


def test_identity_dispatch_exact(grid_256, gaussian_256):
    out = frft_fast(gaussian_256, 0.0)
    assert np.array_equal(out.values, gaussian_256.values)
    out = frft_direct(gaussian_256, 2 * math.pi)
    assert np.array_equal(out.values, gaussian_256.values)


def test_parity_dispatch_exact():
    g = Grid((axis_centered(0.125, 64),))
    f = random_smooth_signal(g, seed=4)
    out = frft_fast(f, math.pi)
    assert np.array_equal(out.values, f.values[::-1])
    assert np.allclose(out.grid.axis_points()[0], -f.grid.axis_points()[0][::-1])


def test_a_kept_order_keeps_the_sign_of_a_zero():
    """Float orders are kept by value, and -0.0 equals 0.0 as a key: a zero
    order is built afresh, so -0.0 after 0.0 is still -0.0, and both are
    the exact identity."""
    g = Grid((axis_centered(0.125, 64),))
    f = random_smooth_signal(g, seed=4)
    for alpha in (0.0, -0.0):
        out = frft_fast(f, alpha)
        assert out.grid == g
        assert np.array_equal(out.values.view(np.uint64), f.values.view(np.uint64))
    assert math.copysign(1.0, _as_order(-0.0).alpha) == -1.0
    assert math.copysign(1.0, _as_order(0.0).alpha) == 1.0
    assert _as_order(0.9) is _as_order(0.9) == TransformOrder(0.9)
    assert c_alpha(0.9, 2) == c_alpha(TransformOrder(0.9), 2)


def test_an_overflowing_transform_is_refused():
    """frft_fast's output skips the signal constructor's conversion and
    shape check, not its finiteness check."""
    f = SampledSignal(Grid((axis_centered(1.0, 64),)), np.full(64, 1.7e308))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite samples"):
        frft_fast(f, 0.9)


def test_identity_wrong_output_grid_raises(gaussian_256):
    bad = Grid((axis_centered(0.1, 256),))
    with pytest.raises(DomainMismatch):
        frft_direct(gaussian_256, 0.0, bad)


@pytest.mark.parametrize("centred", [True, False], ids=["centred", "offset"])
@pytest.mark.parametrize("n", [100, 101, 243, 1000])
def test_fast_matches_direct_any_length(n, centred):
    # the chirp-FFT-chirp factorization is exact for every sample count,
    # odd ones included, and on grids that do not straddle the origin
    step = 12.0 / n
    ax = axis_centered(step, n) if centred else AxisSpec(-0.3 * n * step, step, n)
    f = random_smooth_signal(Grid((ax,)), seed=n)
    for alpha in FIVE_ORDERS:
        fast = frft_fast(f, alpha)
        direct = frft_direct(f, alpha)
        assert np.max(np.abs(fast.values - direct.values)) < 1e-10


def test_next_fast_len_is_scipy_next_fast_len():
    # the padded lengths of the FFT correlations and of frac_convolve
    from scipy.fft import next_fast_len

    got = [_next_fast_len(n) for n in range(1, 20001)]
    assert got == [next_fast_len(n) for n in range(1, 20001)]


def test_fast_matches_direct_2d_odd_shape():
    g = Grid((axis_centered(0.4, 30), AxisSpec(-4.0, 0.35, 27)))
    f = random_smooth_signal(g, seed=29)
    for alpha in (0.6, 2.0):
        fast = frft_fast(f, alpha)
        direct = frft_direct(f, alpha)
        assert np.max(np.abs(fast.values - direct.values)) < 1e-10


def test_round_trip(grid_256):
    f = random_smooth_signal(grid_256, seed=23)
    for alpha in (0.8, 2.4, -1.3):
        back = frft_inverse(frft_fast(f, alpha), alpha)
        assert np.allclose(back.grid.axis_points()[0], grid_256.axis_points()[0])
        assert np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values)) < 1e-10


def test_parseval(grid_256):
    f = random_smooth_signal(grid_256, seed=31)
    nf = l2_norm(f)
    for alpha in (0.5, 1.1, 2.9, -0.7):
        assert abs(l2_norm(frft_fast(f, alpha)) - nf) / nf < 1e-10


def test_conjugation_property(grid_256):
    f = random_smooth_signal(grid_256, seed=37)
    lhs = np.conj(frft_fast(f, 1.3).values)
    rhs = frft_fast(SampledSignal(grid_256, np.conj(f.values)), -1.3).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_boundedness_by_l1(grid_256):
    for seed in (1, 2, 3):
        f = random_smooth_signal(grid_256, seed=seed)
        for alpha in (0.4, 1.6):
            out = frft_fast(f, alpha)
            assert np.max(np.abs(out.values)) <= abs(c_alpha(alpha, 1)) * l1_norm(f) + 1e-8


def test_output_grid_spacing(grid_256):
    for alpha in (0.7, 2.0):
        out_grid = natural_output_grid(grid_256, alpha)
        ax = grid_256.axes[0]
        expected = 2 * math.pi * abs(math.sin(alpha)) / (ax.count * ax.step)
        assert out_grid.axes[0].step == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("alpha", [0.9, 0.0, math.pi, -math.pi])
@pytest.mark.parametrize(
    "grid",
    [Grid((axis_centered(0.0625, 256),)), Grid((axis_centered(0.25, 30), axis_centered(0.2, 27)))],
    ids=["1d_256", "2d_30x27"],
)
def test_batch_transform_equals_frft_fast_per_row(grid, alpha):
    family = [random_smooth_signal(grid, seed=seed) for seed in range(4)]
    out_grid, out = _transform(grid, np.stack([f.values for f in family]), alpha)
    for f, row in zip(family, out):
        single = frft_fast(f, alpha)
        assert out_grid == single.grid
        assert np.array_equal(row, single.values)


def test_plan_c_alpha_modulus(grid_256):
    plan = make_plan(grid_256, TransformOrder(0.9))
    expected = (abs(1 / math.sin(0.9)) / (2 * math.pi)) ** 0.5
    assert abs(plan.c_alpha) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# plan memo: _transform's plans are make_plan's, kept read-only

# each case's grid in named_inputs; start+0 and start-0 are equal grids,
# hash and all, whose phases differ in the signs of zeros
MEMO_GRIDS = {
    "1d-256": "1d-256",
    "1d-101": "1d-101",
    "1d-4096": "1d-4096",
    "2d-30x27": "2d-30x27-centred",
    "2d-64x63": "2d-64x63",
    "start+0": "start+0",
    "start-0": "start-0",
}
# two with sin(alpha) < 0, whose axes run through the inverse FFT
MEMO_ORDERS = (0.9, 2.2, -1.1, 3.7)


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.uint64)


def _fresh_plan_route(values, grid, alpha):
    # the unshared formula, so a change to _apply_plan cannot move both sides
    return chirp_fft_chirp(values, make_plan(grid, alpha))


def _plan_info():
    return cache_info()["transform_plan"]


def _plan_calls(before):
    """(hits, misses) of the plan memo since before."""
    after = _plan_info()
    return after.hits - before.hits, after.misses - before.misses


@pytest.mark.parametrize("route", ["single", "batched", "inverse"])
@pytest.mark.parametrize("alpha", MEMO_ORDERS)
@pytest.mark.parametrize("case", list(MEMO_GRIDS))
def test_cold_and_warm_plans_give_the_fresh_plan_bits(case, alpha, route):
    """frft_fast, frft_inverse and the batched _transform that uncertainty
    runs equal, as integers, chirp_fft_chirp on a plan built afresh, on
    the miss and on the hit: the memoized plans and weights, the in-place
    FFTs and the fftshift folded into the phase product move no bit, nor
    the sign of any zero."""
    grid = named_grid(MEMO_GRIDS[case])
    family = smooth_signals(grid, 3 if route == "batched" else 1)
    values = np.stack([f.values for f in family]) if route == "batched" else family[0].values
    angle = -alpha if route == "inverse" else alpha
    want = _fresh_plan_route(values, grid, angle)
    memo._clear()
    got = []
    for calls in ((0, 1), (1, 0)):
        before = _plan_info()
        if route == "batched":
            out_grid, out = _transform(grid, values, alpha)
        else:
            spectrum = (frft_inverse if route == "inverse" else frft_fast)(family[0], alpha)
            out_grid, out = spectrum.grid, spectrum.values
        assert _plan_calls(before) == calls
        assert out_grid == natural_output_grid(grid, angle)
        got.append(out)
    assert all(np.array_equal(_bits(out), _bits(want)) for out in got)


@pytest.mark.parametrize("alpha", MEMO_ORDERS)
def test_grids_starting_at_plus_and_minus_zero_share_one_plan(alpha):
    """A start of -0.0 equals one of 0.0, hash and all.  Its phases differ
    in the signs of zeros where sin(alpha) < 0, but those zeros move no
    output bit: whichever grid is planned first, both share its kept plan
    and each transforms to its own fresh plan's bits."""
    plus, minus = Grid((AxisSpec(0.0, 0.1, 64),)), Grid((AxisSpec(-0.0, 0.1, 64),))
    assert plus == minus and hash(plus) == hash(minus)
    values = random_smooth_signal(plus, seed=5).values
    values[::5] = -0.0
    for first, second in ((plus, minus), (minus, plus)):
        memo._clear()
        for grid in (first, second, first, second):
            got = _transform(grid, values, alpha)[1]
            assert np.array_equal(_bits(got), _bits(_fresh_plan_route(values, grid, alpha)))
        assert _plan_info().entries == 1
    phases = [_bits(make_plan(grid, alpha).axis_phases[0]) for grid in (plus, minus)]
    assert np.array_equal(*phases) == (math.sin(alpha) > 0)


def test_a_kept_plan_is_read_only(grid_256, gaussian_256):
    memo._clear()
    frft_fast(gaussian_256, 0.9)
    plan = frft_module._transform_plan(grid_256, 0.9)
    assert _plan_info().entries == 1
    for array in (plan.in_chirp, plan.out_chirp, *plan.axis_phases):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_a_changed_make_plan_result_does_not_reach_frft_fast(grid_256, gaussian_256):
    want = frft_fast(gaussian_256, 0.9).values
    plan = make_plan(grid_256, 0.9)
    # make_plan's caller owns fresh, writeable arrays
    assert not np.shares_memory(plan.in_chirp, make_plan(grid_256, 0.9).in_chirp)
    for array in (plan.in_chirp, plan.out_chirp, *plan.axis_phases):
        array[:] = 0.0
    assert np.array_equal(frft_fast(gaussian_256, 0.9).values, want)


def test_a_plan_over_the_byte_bound_is_built_per_call(monkeypatch):
    grid = Grid((axis_centered(0.05, 256), axis_centered(0.05, 256)))
    # its two chirps alone are 2 MiB, and its weights 512 KiB
    monkeypatch.setattr(memo, "_BUDGET_BYTES", 256 * 1024)
    f = random_smooth_signal(grid, seed=2)
    want = _fresh_plan_route(f.values, grid, 0.9)
    factors = []
    chirp = frft_module._chirp

    def counted(radius_sq, factor):
        factors.append(factor)
        return chirp(radius_sq, factor)

    monkeypatch.setattr(frft_module, "_chirp", counted)
    chirps = cache_info()["grid_chirp"]
    for _ in range(2):
        before = cache_info()
        factors.clear()
        got = frft_fast(f, 0.9).values
        after = cache_info()
        # the plan and the weights are built, returned and not kept
        for name in ("transform_plan", "grid_weights"):
            assert after[name].misses == before[name].misses + 1
            assert after[name].entries == before[name].entries
        # make_plan's input and output chirps, and no grid chirp
        assert factors == [TransformOrder(0.9).cot] * 2
        assert np.array_equal(_bits(got), _bits(want))
    assert cache_info()["grid_chirp"] == chirps
