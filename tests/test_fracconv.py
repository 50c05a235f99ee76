"""Checks for fractional convolution and its spectral factorizations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from frwt.errors import DeltaKernel, StepMismatch
from frwt.fracconv import frac_convolve, scaled_identity_check, spectral_identity_check
from frwt.grid import AxisSpec, Grid, SampledSignal, axis_centered, sample

from conftest import random_smooth_signal
from oracles import fftn_frac_convolve

SQRT_PI = 1.7724538509055160  # closed form sqrt(pi)


@pytest.fixture
def grid_512():
    return Grid((axis_centered(24 / 512, 512),))


def test_classical_limit_gaussian_pair(grid_512):
    # at order pi/2 the chirps vanish and
    # (exp(-t^2/2) conv exp(-t^2/2))(t) = sqrt(pi) exp(-t^2/4)
    f = sample(grid_512, lambda t: np.exp(-(t**2) / 2))
    conv = frac_convolve(f, f, math.pi / 2)
    t = grid_512.axis_points()[0]
    assert np.max(np.abs(conv.values - SQRT_PI * np.exp(-(t**2) / 4))) < 1e-6


def test_spectral_identity_five_orders(grid_512):
    f = random_smooth_signal(grid_512, seed=2)
    g = random_smooth_signal(grid_512, seed=3)
    for alpha in (0.5, 0.9, math.pi / 2, 2.0, -1.1):
        rep = spectral_identity_check(f, g, alpha)
        assert rep.passed, f"alpha={alpha}: {rep.details}"
        assert rep.details["max_relative_deviation"] <= 1e-6


def test_scaled_identity_unit_scales(grid_512):
    f = sample(grid_512, lambda t: np.exp(-(t**2) / 2))
    for a in (1.0, -1.0):
        rep = scaled_identity_check(f, f, (a,), 0.9)
        assert rep.passed
        assert rep.details["max_relative_deviation"] <= 1e-6


def test_scaled_identity_general_scale_via_callable(grid_512):
    f = sample(grid_512, lambda t: np.exp(-(t**2) / 2))
    rep = scaled_identity_check(
        f, f, (2.0,), 0.9, g_eval=lambda y: np.exp(-(y**2) / 2)
    )
    assert rep.passed
    assert rep.details["max_relative_deviation"] <= 1e-6


def test_scaled_identity_interpolated_operand(grid_512):
    # no callable: the sampled operand is rescaled by sinc interpolation
    f = sample(grid_512, lambda t: np.exp(-(t**2) / 2))
    rep = scaled_identity_check(f, f, (2.0,), 0.9)
    assert rep.details["max_relative_deviation"] <= 1e-7


@pytest.mark.parametrize(
    "shift, step_factor, count",
    [
        (0.5, 1.0, 511),  # half a step off the target lattice
        (0.0, 1.5, 341),  # a step 1.5 times the target's
    ],
)
def test_scaled_identity_operand_off_target_lattice(grid_512, shift, step_factor, count):
    # at a = 1 the operand's samples need not sit on f's grid; the sampled
    # route must agree with the exact callable route
    gauss = lambda t: np.exp(-(t**2) / 2)
    f = sample(grid_512, gauss)
    step = grid_512.axes[0].step
    g_axis = axis_centered(step_factor * step, count)
    g = sample(Grid((AxisSpec(g_axis.start + shift * step, g_axis.step, count),)), gauss)
    sampled = scaled_identity_check(f, g, (1.0,), 0.9)
    exact = scaled_identity_check(f, g, (1.0,), 0.9, g_eval=gauss)
    assert sampled.details["max_relative_deviation"] <= 1e-12
    assert abs(sampled.ratio - exact.ratio) <= 1e-12


def test_scaled_identity_2d_interpolated_operand():
    g = Grid((axis_centered(0.375, 64), axis_centered(0.375, 48)))
    f = sample(g, lambda x, y: np.exp(-(x**2 + y**2) / 2) * (1 + 0.3j * x))
    rep = scaled_identity_check(f, f, (2.0, -0.5), 1.1)
    assert rep.details["max_relative_deviation"] <= 1e-6


@pytest.mark.parametrize("scale", [(2.0, 3.0), ()], ids=["too_long", "empty"])
def test_scaled_identity_refuses_a_scale_of_the_wrong_dimension(grid_512, scale):
    # zip over the axes would drop the extra component, or index past an empty scale
    f = sample(grid_512, lambda t: np.exp(-(t**2) / 2))
    with pytest.raises(ValueError, match="components"):
        scaled_identity_check(f, f, scale, 0.9)


def test_bilinearity(grid_512):
    f = random_smooth_signal(grid_512, seed=4)
    h1 = random_smooth_signal(grid_512, seed=5)
    h2 = random_smooth_signal(grid_512, seed=6)
    lam = 0.7 - 0.2j
    combined = SampledSignal(grid_512, h1.values + lam * h2.values)
    left = frac_convolve(f, combined, 0.7).values
    right = (
        frac_convolve(f, h1, 0.7).values
        + lam * frac_convolve(f, h2, 0.7).values
    )
    scale = np.max(np.abs(left))
    assert np.max(np.abs(left - right)) / scale < 1e-12
    # and in the first argument
    left = frac_convolve(combined, f, 0.7).values
    right = (
        frac_convolve(h1, f, 0.7).values
        + lam * frac_convolve(h2, f, 0.7).values
    )
    assert np.max(np.abs(left - right)) / np.max(np.abs(left)) < 1e-12


def test_second_operand_own_grid(grid_512):
    # g may live on a shorter grid as long as steps agree and its offset
    # is a whole number of steps
    f = random_smooth_signal(grid_512, seed=7)
    step = grid_512.axes[0].step
    g_grid = Grid((AxisSpec(-85 * step, step, 200),))
    g = sample(g_grid, lambda t: np.exp(-2 * t**2))
    out = frac_convolve(f, g, 0.8)
    # compare against the same operand zero-extended onto the wide grid
    wide = np.zeros(512, dtype=complex)
    wide[512 // 2 - 85 : 512 // 2 - 85 + 200] = g.values
    out2 = frac_convolve(f, SampledSignal(grid_512, wide), 0.8)
    assert np.max(np.abs(out.values - out2.values)) < 1e-12


def test_step_mismatch_raises(grid_512):
    f = random_smooth_signal(grid_512, seed=8)
    g = sample(Grid((axis_centered(0.05, 64),)), lambda t: np.exp(-(t**2)))
    with pytest.raises(StepMismatch):
        frac_convolve(f, g, 0.8)


def test_offset_mismatch_raises(grid_512):
    f = random_smooth_signal(grid_512, seed=9)
    step = grid_512.axes[0].step
    g = sample(Grid((AxisSpec(-85.4 * step, step, 64),)), lambda t: np.exp(-(t**2)))
    with pytest.raises(StepMismatch):
        frac_convolve(f, g, 0.8)


def test_delta_order_rejected(grid_512):
    f = random_smooth_signal(grid_512, seed=10)
    with pytest.raises(DeltaKernel):
        frac_convolve(f, f, 0.0)


def test_2d_spectral_identity():
    g = Grid((axis_centered(0.375, 64), axis_centered(0.375, 64)))
    f = sample(g, lambda x, y: np.exp(-(x**2 + y**2) / 2) * (1 + 0.4j * x))
    h = sample(g, lambda x, y: (x + 0.5j * y) * np.exp(-(x**2 + y**2)))
    rep = spectral_identity_check(f, h, 1.2)
    assert rep.passed, rep.details


@pytest.mark.parametrize("alpha", [0.7, math.pi / 2, -1.3, 2.6])
@pytest.mark.parametrize(
    "f_axes, g_axes",
    [
        ([axis_centered(0.1, 101)], [AxisSpec(-1.2, 0.1, 37)]),
        ([axis_centered(0.1, 64)], [AxisSpec(0.5, 0.1, 80)]),
        ([axis_centered(0.2, 64), axis_centered(0.25, 48)], [AxisSpec(0.4, 0.2, 20), AxisSpec(-2.0, 0.25, 31)]),
        ([axis_centered(0.2, 30), axis_centered(0.2, 27)], [axis_centered(0.2, 30), axis_centered(0.2, 27)]),
    ],
)
def test_frac_convolve_is_bit_identical_to_fftn_formula(alpha, f_axes, g_axes):
    rng = np.random.default_rng(11)
    f_grid, g_grid = Grid(tuple(f_axes)), Grid(tuple(g_axes))
    f = SampledSignal(f_grid, rng.standard_normal(f_grid.shape) + 1j * rng.standard_normal(f_grid.shape))
    g = SampledSignal(g_grid, rng.standard_normal(g_grid.shape) + 0.5j)
    got = frac_convolve(f, g, alpha).values
    assert np.array_equal(got, fftn_frac_convolve(f, g, alpha))
