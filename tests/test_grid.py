"""Sanity checks for grids, sampled signals and trapezoidal quadrature."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frwt.errors import GridMismatch
from frwt.grid import (
    AxisSpec,
    Grid,
    SampledSignal,
    axis_centered,
    axis_linspace,
    inner_product,
    integrate,
    l1_norm,
    l2_norm,
    sample,
)

SQRT_2PI = 2.5066282746310005  # closed form sqrt(2*pi)
PI_QUARTER_ROOT = 1.3313353638003897  # closed form pi**0.25


def test_axis_validation():
    with pytest.raises(ValueError):
        AxisSpec(0.0, -0.1, 8)
    with pytest.raises(ValueError):
        AxisSpec(0.0, 0.1, 1)
    with pytest.raises(ValueError):
        AxisSpec(math.nan, 0.1, 8)


def test_grid_refuses_an_overflowing_squared_radius():
    edge = math.sqrt(sys.float_info.max)  # edge * edge is finite, its successor's square is not
    half = math.sqrt(sys.float_info.max / 2)
    for axes in [(AxisSpec(0.0, edge, 2),), (AxisSpec(-edge, edge, 2),), (AxisSpec(0.0, half, 2),) * 2]:
        assert np.all(np.isfinite(Grid(axes).radius_sq()))
    overflowing = [
        (AxisSpec(0.0, math.nextafter(edge, math.inf), 2),),
        (AxisSpec(1e200, 1e200, 4),),
        # each axis's squares are finite, their sum is not
        (AxisSpec(0.0, 1.3e154 / 3, 4),) * 2,
    ]
    for axes in overflowing:
        with pytest.raises(ValueError, match="squared coordinate"):
            Grid(axes)


def test_axis_weights_sum():
    ax = AxisSpec(-3.0, 0.25, 41)
    assert np.isclose(ax.weights().sum(), (ax.count - 1) * ax.step, rtol=1e-14)


def test_constant_integral_exact():
    # trapezoid integrates a constant exactly: [-1, 1], 201 points -> 2.0
    g = Grid((axis_linspace(-1.0, 1.0, 201),))
    f = SampledSignal(g, np.ones(201))
    assert integrate(f) == pytest.approx(2.0, abs=1e-14)


def test_gaussian_integral_known_value():
    g = Grid((axis_linspace(-8.0, 8.0, 513),))
    f = sample(g, lambda t: np.exp(-(t**2) / 2))
    assert integrate(f).real == pytest.approx(SQRT_2PI, abs=1e-10)
    assert abs(integrate(f).imag) < 1e-15


def test_gaussian_l2_norm():
    g = Grid((axis_linspace(-8.0, 8.0, 513),))
    f = sample(g, lambda t: np.exp(-(t**2) / 2))
    assert l2_norm(f) == pytest.approx(PI_QUARTER_ROOT, abs=1e-10)


def test_2d_separable_integral():
    g = Grid((axis_linspace(-7.0, 7.0, 201), axis_linspace(-7.0, 7.0, 161)))
    f = sample(g, lambda x, y: np.exp(-(x**2 + y**2) / 2))
    assert integrate(f).real == pytest.approx(SQRT_2PI**2, rel=1e-10)


def test_axis_permutation_invariance():
    ax_a = axis_linspace(-6.0, 6.0, 181)
    ax_b = axis_linspace(-5.0, 5.0, 145)
    f = sample(Grid((ax_a, ax_b)), lambda x, y: np.exp(-(x**2) - 0.5 * y**2) * (1 + x * y))
    g = sample(Grid((ax_b, ax_a)), lambda y, x: np.exp(-(x**2) - 0.5 * y**2) * (1 + x * y))
    assert integrate(f) == pytest.approx(integrate(g), rel=1e-12)


def test_inner_product_conjugate_linearity():
    g = Grid((axis_centered(0.1, 64),))
    f = sample(g, lambda t: np.exp(-(t**2)) * (1 + 1j * t))
    h = sample(g, lambda t: np.exp(-(t**2) / 2) * t)
    lam = 0.7 - 1.3j
    scaled = SampledSignal(g, lam * h.values)
    assert inner_product(f, scaled) == pytest.approx(
        np.conj(lam) * inner_product(f, h), rel=1e-12
    )
    assert inner_product(h, f) == pytest.approx(np.conj(inner_product(f, h)), rel=1e-12)


def test_grid_mismatch_raises():
    f = sample(Grid((axis_centered(0.1, 64),)), lambda t: np.exp(-(t**2)))
    h = sample(Grid((axis_centered(0.2, 64),)), lambda t: np.exp(-(t**2)))
    with pytest.raises(GridMismatch):
        inner_product(f, h)


def test_l2_norm_zero_iff_zero():
    g = Grid((axis_centered(0.1, 32),))
    z = SampledSignal(g, np.zeros(32))
    assert l2_norm(z) == 0.0
    tiny = np.zeros(32)
    tiny[5] = 1e-150
    assert l2_norm(SampledSignal(g, tiny)) > 0.0


def test_non_finite_rejected():
    g = Grid((axis_centered(0.1, 8),))
    bad = np.ones(8, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        SampledSignal(g, bad)


def test_reflected_axis_points():
    ax = axis_centered(0.25, 16)
    assert np.allclose(ax.reflected().points(), -ax.points()[::-1])


@settings(max_examples=25, deadline=None)
@given(
    count=st.sampled_from([16, 33, 64]),
    lo=st.floats(-4.0, -1.0),
    span=st.floats(2.0, 8.0),
)
def test_integrate_linearity(count, lo, span):
    g = Grid((axis_linspace(lo, lo + span, count),))
    t = g.axis_points()[0]
    f = SampledSignal(g, np.sin(t) + 0.3j * t)
    h = SampledSignal(g, np.cos(2 * t))
    lam = 1.7 - 0.4j
    combined = SampledSignal(g, f.values + lam * h.values)
    assert integrate(combined) == pytest.approx(
        integrate(f) + lam * integrate(h), rel=1e-12, abs=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_l1_l2_inequality_on_shared_grid(seed):
    # Cauchy-Schwarz sanity: |integral f|  <= L1 norm
    rng = np.random.default_rng(seed)
    g = Grid((axis_centered(0.125, 64),))
    f = SampledSignal(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    assert abs(integrate(f)) <= l1_norm(f) + 1e-12
