from __future__ import annotations

import math

import numpy as np
import pytest

from frwt.errors import GridTooSmall, ZeroScaleComponent
from frwt.frft import TransformOrder
from frwt.grid import Grid, axis_centered, l2_norm
from frwt.wavelets import (
    CATALOG,
    WaveletSpec,
    get_wavelet,
    make_daughter,
    wavelet_l1_norm,
    wavelet_l2_norm,
)

# Closed forms, evaluated with mpmath at 30 digits and frozen here.
MEX_L1 = 2.4261226388505337
MEX_L2_SQ = 1.3293403881791370  # 3 sqrt(pi) / 4

HALF_PI = math.pi / 2


def wide_grid():
    # [-64, 64) at step 1/16: roomy enough for |a| up to 4 with shifts.
    return Grid((axis_centered(0.0625, 2048),))


def test_catalog_names():
    for name in ("mexican_hat", "morlet", "gaussian", "dog1", "dog3", "dog4"):
        assert name in CATALOG
        assert get_wavelet(name).name == name


def test_unknown_wavelet_lists_choices():
    with pytest.raises(KeyError, match="mexican_hat"):
        get_wavelet("haar")


def test_mexican_hat_values():
    psi = get_wavelet("mexican_hat")
    t = np.array([0.0, 1.0, -2.0])
    expected = (1.0 - t**2) * np.exp(-(t**2) / 2)
    assert np.allclose(psi.profile(t), expected, rtol=0, atol=1e-15)


def test_dog4_center_value():
    # He_4(0) = 3, so the profile starts at exactly 3.
    assert get_wavelet("dog4").profile(np.array([0.0]))[0] == pytest.approx(3.0, abs=1e-14)


def test_dog1_is_negative_derivative_of_gaussian():
    psi = get_wavelet("dog1")
    t = np.linspace(-3, 3, 61)
    assert np.allclose(psi.profile(t), -t * np.exp(-(t**2) / 2), atol=1e-14)


def test_morlet_has_zero_mean():
    """The correction term removes the DC component exactly; quadrature on
    [-8, 8] sees only the Gaussian tail beyond that."""
    psi = get_wavelet("morlet")
    t = np.linspace(-8, 8, 8192)
    mean = np.trapezoid(psi.profile(t), t)
    assert abs(mean) < 1e-10


def test_norms_match_closed_forms():
    mex = get_wavelet("mexican_hat")
    # |psi| has kinks at t = +-1, so the L1 quadrature is O(h^2) only.
    assert wavelet_l1_norm(mex) == pytest.approx(MEX_L1, abs=5e-6)
    assert wavelet_l2_norm(mex) ** 2 == pytest.approx(MEX_L2_SQ, rel=1e-12)


def test_daughter_at_identity_parameters(grid_256):
    # a = 1, b = 0, alpha = pi/2: the chirp exponent is cot(pi/2) ~ 6e-17,
    # a phase ramp below 1e-14 over |t| <= 8, so the daughter is the plain
    # wavelet to near machine accuracy.
    mex = get_wavelet("mexican_hat")
    d = make_daughter(mex, (1.0,), (0.0,), TransformOrder(HALF_PI), grid_256)
    t = grid_256.axis_points()[0]
    assert np.allclose(d.values, mex.profile(t), rtol=0, atol=1e-13)


def test_daughter_shift_by_one_step_is_index_shift(grid_256):
    """At alpha = pi/2 a shift by exactly one grid step relabels samples.

    The grid step is dyadic so t_j - dt equals t_{j-1} bit for bit; only the
    residual chirp from the floating pi/2 separates the two arrays.
    """
    mex = get_wavelet("mexican_hat")
    order = TransformOrder(HALF_PI)
    dt = grid_256.axes[0].step
    d0 = make_daughter(mex, (1.0,), (0.0,), order, grid_256)
    d1 = make_daughter(mex, (1.0,), (dt,), order, grid_256)
    assert np.allclose(d1.values[1:], d0.values[:-1], rtol=0, atol=1e-13)


def test_daughter_dilation_preserves_norm():
    mex = get_wavelet("mexican_hat")
    g = wide_grid()
    d = make_daughter(mex, (2.0,), (0.0,), TransformOrder(0.7), g)
    assert l2_norm(d) == pytest.approx(wavelet_l2_norm(mex), abs=1e-8)


def test_daughter_norm_random_parameters():
    mex = get_wavelet("mexican_hat")
    g = wide_grid()
    rng = np.random.default_rng(7)
    ref = wavelet_l2_norm(mex)
    for _ in range(8):
        a = rng.uniform(0.5, 4.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(-2.0, 2.0)
        alpha = rng.uniform(0.3, 2.8)
        d = make_daughter(mex, (a,), (b,), TransformOrder(alpha), g)
        assert l2_norm(d) == pytest.approx(ref, abs=1e-8)


def test_daughter_2d_norm_is_product():
    mex = get_wavelet("mexican_hat")
    ax = axis_centered(0.125, 512)
    g = Grid((ax, ax))
    d = make_daughter(mex, (1.0, -2.0), (0.5, 0.0), TransformOrder(1.1), g)
    assert l2_norm(d) == pytest.approx(wavelet_l2_norm(mex) ** 2, rel=1e-8)


def test_daughter_rejects_zero_scale(grid_256):
    mex = get_wavelet("mexican_hat")
    with pytest.raises(ZeroScaleComponent):
        make_daughter(mex, (0.0,), (0.0,), TransformOrder(1.0), grid_256)


def test_daughter_rejects_spilling_support(grid_256):
    # |a| = 4 puts the effective support at +-32 on a +-8 window.
    mex = get_wavelet("mexican_hat")
    with pytest.raises(GridTooSmall):
        make_daughter(mex, (4.0,), (0.0,), TransformOrder(1.0), grid_256)


def test_daughter_tail_check_can_be_skipped(grid_256):
    mex = get_wavelet("mexican_hat")
    d = make_daughter(mex, (4.0,), (0.0,), TransformOrder(1.0), grid_256, tail_tol=None)
    assert d.values.shape == (256,)


def test_daughter_dimension_mismatch(grid_256):
    mex = get_wavelet("mexican_hat")
    with pytest.raises(ValueError):
        make_daughter(mex, (1.0, 1.0), (0.0, 0.0), TransformOrder(1.0), grid_256)


def test_custom_spec_round_trip():
    flat = WaveletSpec(name="boxcar", profile=lambda t: np.where(np.abs(t) < 1, 1.0, 0.0),
                       support_radius=1.5)
    t = np.array([0.0, 0.5, 2.0])
    assert np.array_equal(flat.profile(t), np.array([1.0, 1.0, 0.0]))
