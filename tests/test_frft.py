"""Checks for the fractional Fourier engine: kernel, fast/direct routes,
exact dispatch and the structure operators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from frwt.errors import DeltaKernel, DomainMismatch, NearSingularOrder, OffGridShift
from frwt.frft import (
    Dilate,
    Modulate,
    OrderKind,
    TransformOrder,
    Translate,
    _next_fast_len,
    apply_operator,
    c_alpha,
    frft_direct,
    frft_fast,
    frft_inverse,
    kernel_eval,
    make_plan,
    natural_output_grid,
)
from frwt.grid import AxisSpec, Grid, SampledSignal, axis_centered, l1_norm, l2_norm, sample

from conftest import random_smooth_signal
from oracles import brute_kernel_transform, classical_unitary_ft

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


def test_kernel_symmetry_in_t_xi():
    t = np.linspace(-2, 2, 17)
    xi = np.linspace(-1.5, 2.5, 17)
    a = kernel_eval(t, xi, 0.8)
    b = kernel_eval(xi, t, 0.8)
    assert np.array_equal(a, b)


def test_kernel_conjugation():
    t = np.linspace(-3, 3, 11)[:, None]
    xi = np.linspace(-3, 3, 13)[None, :]
    lhs = np.conj(kernel_eval(t, xi, 1.1))
    rhs = kernel_eval(t, xi, -1.1)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_kernel_modulus_constant():
    vals = kernel_eval(np.linspace(-4, 4, 33), 0.7, math.pi / 4)
    assert np.allclose(np.abs(vals), C_PI_QUARTER_ABS, atol=1e-12)


def test_kernel_delta_orders_raise():
    for alpha in (0.0, math.pi, -2 * math.pi):
        with pytest.raises(DeltaKernel):
            kernel_eval(0.0, 0.0, alpha)


def test_c_alpha_modulus():
    for alpha in (0.4, 1.0, 2.0, -0.9):
        for n in (1, 2, 3):
            expected = (abs(1 / math.sin(alpha)) / (2 * math.pi)) ** (n / 2)
            assert abs(c_alpha(alpha, n)) == pytest.approx(expected, rel=1e-12)
    assert c_alpha(math.pi / 2, 1) == pytest.approx(1 / math.sqrt(2 * math.pi))


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


def test_plan_reuse(grid_256):
    f = random_smooth_signal(grid_256, seed=41)
    plan = make_plan(grid_256, TransformOrder(1.05))
    a = frft_fast(f, 1.05, plan)
    b = frft_fast(f, 1.05)
    assert np.array_equal(a.values, b.values)
    other = Grid((axis_centered(0.1, 256),))
    with pytest.raises(DomainMismatch):
        frft_fast(sample(other, lambda t: np.exp(-(t**2))), 1.05, plan)


def test_plan_c_alpha_modulus(grid_256):
    plan = make_plan(grid_256, TransformOrder(0.9))
    expected = (abs(1 / math.sin(0.9)) / (2 * math.pi)) ** 0.5
    assert abs(plan.c_alpha) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# operators


def test_translate_covariance(grid_256):
    f = random_smooth_signal(grid_256, seed=5)
    alpha = TransformOrder(1.1)
    eta = (4 * grid_256.axes[0].step,)
    lhs = frft_fast(apply_operator(f, Translate(eta, alpha)), alpha)
    rhs = apply_operator(
        frft_fast(f, alpha), Modulate(tuple(-e for e in eta), alpha.negated())
    )
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-6


def test_modulate_covariance(grid_256):
    f = random_smooth_signal(grid_256, seed=6)
    alpha = TransformOrder(0.9)
    out_step = natural_output_grid(grid_256, alpha).axes[0].step
    eta = (3 * out_step,)
    lhs = frft_fast(apply_operator(f, Modulate(eta, alpha)), alpha)
    rhs = apply_operator(
        frft_fast(f, alpha), Translate(tuple(-e for e in eta), alpha.negated())
    )
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-6


def test_dilate_covariance(grid_256):
    f = random_smooth_signal(grid_256, seed=8)
    alpha = 0.8
    lhs = frft_fast(apply_operator(f, Dilate((-1.0,))), alpha)
    # right side: transform evaluated at -xi, i.e. on the reflected output grid
    refl = natural_output_grid(grid_256, alpha).reflected()
    rhs = frft_direct(f, alpha, refl)
    assert np.max(np.abs(lhs.values - rhs.values[::-1])) < 1e-8


def test_translate_off_grid_raises(grid_256, gaussian_256):
    with pytest.raises(OffGridShift):
        apply_operator(gaussian_256, Translate((0.33 * grid_256.axes[0].step,), TransformOrder(1.0)))


def test_dilate_rejects_non_unit(gaussian_256):
    with pytest.raises(ValueError):
        apply_operator(gaussian_256, Dilate((2.0,)))


def test_translate_exact_shift(grid_256):
    f = random_smooth_signal(grid_256, seed=9)
    # at cot == 0 (alpha = pi/2) the phase factor is 1: pure index shift
    shifted = apply_operator(f, Translate((2 * grid_256.axes[0].step,), TransformOrder(math.pi / 2)))
    # cot(pi/2) is ~1e-17 in floating point, so the phase factor is 1 to rounding
    assert np.allclose(shifted.values[:-2], f.values[2:], rtol=0, atol=1e-12)
    assert np.all(shifted.values[-2:] == 0)
