"""Morrey-norm scan and the scale-slice perturbation bounds."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from frwt import memo, morrey
from frwt.cfrwt import cfrwt_fast
from frwt.errors import EmptyScan, GridMismatch
from frwt import cache_info
from frwt.grid import AxisSpec, Grid, SampledSignal, axis_centered, l1_norm, sample
from frwt.morrey import (
    MorreyConfig,
    MorreyEstimate,
    default_morrey_config,
    morrey_bound_check,
    morrey_distance_checks,
    morrey_norm,
)
from frwt.scales import ScaleGrid
from frwt.wavelets import WaveletSpec, get_wavelet, wavelet_l1_norm

from oracles import per_center_morrey_norm

MEX = get_wavelet("mexican_hat")
GAUSS_WAVELET = get_wavelet("gaussian")
DOG3 = get_wavelet("dog3")

HALF_PI = math.pi / 2

# octave radii avoid the window just below r=1 where the discrete mass
# of the indicator overshoots the continuum optimum
OCTAVE_CFG = MorreyConfig(
    0.5,
    tuple((float(c),) for c in range(-8, 8)),
    (0.125, 0.25, 0.5, 1.0, 2.0, 4.0),
)


@pytest.fixture(scope="module")
def cfg_default():
    return default_morrey_config(Grid((axis_centered(0.0625, 256),)), 0.5)


@pytest.fixture(scope="module")
def wide_grid():
    return Grid((axis_centered(0.0625, 2048),))


# ------------------------------------------------------------------
# the norm scan


def test_indicator_norm_exact(grid_256):
    # indicator of [-1,1] with half-values at the jump samples: the
    # optimum min(2r,2)/sqrt(r) is attained at r=1 with value 2, and
    # the dyadic grid reproduces it exactly
    f = sample(grid_256, lambda t: np.where(np.abs(t) < 1.0, 1.0, 0.0) + 0.5 * (np.abs(t) == 1.0))
    est = morrey_norm(f, OCTAVE_CFG)
    assert est.value == pytest.approx(2.0, abs=1e-9)
    assert est.center == (0.0,)
    assert est.radius == 1.0


def test_indicator_default_scan_stays_below_optimum(grid_256, cfg_default):
    f = sample(grid_256, lambda t: np.where(np.abs(t) < 1.0, 1.0, 0.0) + 0.5 * (np.abs(t) == 1.0))
    est = morrey_norm(f, cfg_default)
    assert 1.8 < est.value < 2.0


def test_nu_zero_recovers_l1(gaussian_256):
    cfg = MorreyConfig(0.0, ((0.0,),), (16.0,))
    est = morrey_norm(gaussian_256, cfg)
    assert est.value == pytest.approx(l1_norm(gaussian_256), rel=1e-12)


def test_gaussian_scan_value(gaussian_256, cfg_default):
    # dense continuum optimization gives 1.7763; the discrete ball mass
    # carries full boundary cells so the scan may sit a hair above
    est = morrey_norm(gaussian_256, cfg_default)
    assert est.value == pytest.approx(1.7852776768420404, abs=1e-6)
    assert abs(est.center[0]) < 0.3


def test_homogeneity(gaussian_256, cfg_default):
    tripled = SampledSignal(gaussian_256.grid, 3.0 * gaussian_256.values)
    a = morrey_norm(gaussian_256, cfg_default)
    b = morrey_norm(tripled, cfg_default)
    assert b.value == pytest.approx(3.0 * a.value, rel=1e-12)
    assert b.center == a.center and b.radius == a.radius


def test_monotone_in_modulus(grid_256, gaussian_256, cfg_default):
    bigger = sample(grid_256, lambda t: np.exp(-(t**2) / 8))
    assert morrey_norm(gaussian_256, cfg_default).value <= morrey_norm(bigger, cfg_default).value


def test_refinement_never_decreases(gaussian_256):
    coarse = MorreyConfig(0.5, ((0.0,), (2.0,)), (0.5, 2.0))
    fine = MorreyConfig(0.5, ((0.0,), (1.0,), (2.0,)), (0.25, 0.5, 1.0, 2.0))
    assert morrey_norm(gaussian_256, coarse).value <= morrey_norm(gaussian_256, fine).value


def test_estimate_consistency_floor(gaussian_256, cfg_default):
    # the largest tested ball at the first center is one of the scanned
    # candidates, so the estimate dominates it
    est = morrey_norm(gaussian_256, cfg_default)
    rmax = max(cfg_default.radii)
    d2 = (gaussian_256.grid.meshgrid()[0] - cfg_default.centers[0][0]) ** 2
    w = gaussian_256.grid.weights()
    floor = rmax**-0.5 * float(np.sum((w * np.abs(gaussian_256.values))[d2 <= rmax**2]))
    assert est.value >= floor


def test_scan_validation(gaussian_256):
    with pytest.raises(EmptyScan):
        morrey_norm(gaussian_256, MorreyConfig(0.5, (), (1.0,)))
    with pytest.raises(EmptyScan):
        morrey_norm(gaussian_256, MorreyConfig(0.5, ((0.0,),), ()))
    with pytest.raises(ValueError):
        morrey_norm(gaussian_256, MorreyConfig(0.5, ((100.0,),), (1.0,)))
    with pytest.raises(ValueError):
        morrey_norm(gaussian_256, MorreyConfig(0.5, ((0.0, 0.0),), (1.0,)))


def test_config_validation():
    with pytest.raises(ValueError):
        MorreyConfig(-0.5, ((0.0,),), (1.0,))
    with pytest.raises(ValueError):
        MorreyConfig(0.5, ((0.0,),), (0.0,))
    with pytest.raises(ValueError):
        MorreyEstimate(-1.0, (0.0,), 1.0)


def test_default_config_shape(grid_256):
    cfg = default_morrey_config(grid_256, 0.5)
    assert len(cfg.centers) == 64
    assert len(cfg.radii) == 32
    assert cfg.radii[0] == pytest.approx(0.125)
    assert cfg.radii[-1] == pytest.approx(15.9375 / 2)


def test_two_dimensional_scan():
    grid = Grid((axis_centered(0.25, 64), axis_centered(0.25, 64)))
    f = sample(grid, lambda x, y: np.exp(-(x**2 + y**2) / 2))
    # ball mass 2*pi*(1 - e^{-r^2/2}): optimum 2.8353 at r = 1.5852
    origin = MorreyConfig(1.0, ((0.0, 0.0),), tuple(np.geomspace(0.5, 6.0, 48)))
    est = morrey_norm(f, origin)
    assert est.value == pytest.approx(2.8353, abs=0.03)
    # the default lattice misses the origin: strictly smaller estimate
    cfg = default_morrey_config(grid, 1.0)
    assert len(cfg.centers) == 64
    assert morrey_norm(f, cfg).value < est.value


def _morrey_cases():
    line = Grid((axis_centered(0.0625, 256),))
    plane = Grid((axis_centered(0.25, 40), AxisSpec(-3.0, 0.3, 23)))
    rng = np.random.default_rng(7)
    noise = SampledSignal(plane, rng.standard_normal(plane.shape) + 1j * rng.standard_normal(plane.shape))
    bump = sample(line, lambda t: np.exp(-((t - 0.4) ** 2) / 2) * (1.0 + 0.3j * t))
    return {
        "1d-default": (bump, default_morrey_config(line, 0.5)),
        "1d-unsorted-radii": (bump, MorreyConfig(1.0, ((0.0,), (-2.5,), (3.0,)), (2.0, 0.25, 1.0, 0.5, 4.0))),
        "1d-duplicate-centers": (bump, MorreyConfig(0.5, ((0.5,), (-1.0,), (0.5,), (-1.0,)), (0.5, 1.0, 2.0))),
        "1d-wide": (
            sample(Grid((axis_centered(0.0625, 2048),)), lambda t: np.exp(-(t**2) / (2 * 24.0**2))),
            default_morrey_config(Grid((axis_centered(0.0625, 2048),)), 0.5),
        ),
        "2d-default": (noise, default_morrey_config(plane, 1.0)),
        "2d-nu-zero": (noise, default_morrey_config(plane, 0.0)),
    }


@pytest.mark.parametrize("case", sorted(_morrey_cases()))
def test_scan_equals_the_per_center_oracle(case):
    """Kept ball orders and prefix sums over blocks of centers move no bit
    of the value, and report the oracle's center and radius, cold and
    warm."""
    f, cfg = _morrey_cases()[case]
    want = per_center_morrey_norm(f, cfg)
    memo._clear()
    for _ in range(2):
        got = morrey_norm(f, cfg)
        assert (got.value, got.center, got.radius) == (want.value, want.center, want.radius)


@pytest.mark.parametrize("kept", [True, False], ids=["kept", "unkept"])
def test_a_tie_goes_to_the_first_center(grid_256, kept, monkeypatch):
    # a constant signal: every ball inside the grid holds the same mass
    if not kept:
        monkeypatch.setattr(morrey, "_KEPT_ORDER_BYTES", 0)
    flat = sample(grid_256, lambda t: np.ones_like(t))
    for centers in (((1.0,), (-1.0,), (0.0,)), ((-1.0,), (0.0,), (1.0,))):
        cfg = MorreyConfig(0.5, centers, (0.5, 2.0, 1.0))
        est = morrey_norm(flat, cfg)
        assert est.center == centers[0]
        assert est.radius == 2.0
        assert est == per_center_morrey_norm(flat, cfg)


def test_unkept_blocks_equal_the_oracle(monkeypatch):
    # a scan over the order budget sorts each block of centers afresh
    f, cfg = _morrey_cases()["2d-default"]
    monkeypatch.setattr(morrey, "_KEPT_ORDER_BYTES", 0)
    monkeypatch.setattr(morrey, "_row_blocks", lambda count, elems: [slice(k, min(k + 3, count)) for k in range(0, count, 3)])
    memo._clear()
    assert morrey_norm(f, cfg) == per_center_morrey_norm(f, cfg)
    assert cache_info()["ball_orders"][:3] == (0, 0, 0)


def test_scan_errors_come_before_any_work(gaussian_256, monkeypatch):
    calls = []
    monkeypatch.setattr(morrey, "_center_distances", lambda *a: calls.append(a))
    radii = (0.5, 1.0)
    for centers, error in [
        (((0.0,), (1.0,), (100.0,)), "outside the grid hull"),
        (((0.0,), (1.0,), (0.0, 0.0)), "wrong dimension"),
    ]:
        with pytest.raises(ValueError, match=error):
            morrey_norm(gaussian_256, MorreyConfig(0.5, centers, radii))
    with pytest.raises(EmptyScan):
        morrey_norm(gaussian_256, MorreyConfig(0.5, (), radii))
    assert calls == []


def test_a_large_scan_peaks_no_higher_than_the_per_center_loop():
    """A 2-D 256^2 grid's default scan (32 MiB of orders) is sorted block by
    block and not kept: its traced peak stays under the oracle's."""
    grid = Grid((axis_centered(1 / 16, 256), axis_centered(1 / 16, 256)))
    f = sample(grid, lambda x, y: np.exp(-(x**2 + y**2) / 2))
    cfg = default_morrey_config(grid, 0.5)
    peaks, results = [], []
    for scan in (per_center_morrey_norm, morrey_norm):
        tracemalloc.start()
        try:
            results.append(scan(f, cfg))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results[0] == results[1]
    assert peaks[1] <= peaks[0]


# ------------------------------------------------------------------
# slice bounds


def test_bound_check_gaussian_mexhat(gaussian_256, cfg_default):
    rep = morrey_bound_check(gaussian_256, MEX, (1.0,), 0.9, cfg_default)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.771399, abs=1e-3)
    assert rep.ratio < 0.5
    assert rep.details["l1_lhs"] <= rep.details["l1_rhs"]
    # zero-mean wavelet: slice norms flatten out, well under the cap
    assert rep.details["growth_exponent"] < 0.3


def test_bound_check_root_scale_factor(gaussian_256, cfg_default):
    # right side doubles from a=1 to a=4; measured left grows slower
    r1 = morrey_bound_check(gaussian_256, MEX, (1.0,), 0.9, cfg_default)
    r4 = morrey_bound_check(gaussian_256, MEX, (4.0,), 0.9, cfg_default)
    assert r4.rhs == pytest.approx(2.0 * r1.rhs, rel=1e-12)
    assert r4.lhs <= 2.0 * r1.lhs


def test_bound_check_zero_signal(grid_256, cfg_default):
    zero = sample(grid_256, lambda t: np.zeros_like(t))
    rep = morrey_bound_check(zero, MEX, (1.0,), 0.9, cfg_default)
    assert rep.passed
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0
    assert rep.details["growth_exponent"] is None


def test_growth_exponent_saturates_for_mean_carrying_wavelet(wide_grid):
    # a wavelet with nonzero mean against a much wider signal makes the
    # sqrt growth cap tight across the sweep
    f = sample(wide_grid, lambda t: np.exp(-(t**2) / (2 * 24.0**2)))
    cfg = default_morrey_config(wide_grid, 0.5)
    rep = morrey_bound_check(f, GAUSS_WAVELET, (1.0,), HALF_PI, cfg)
    assert rep.passed
    assert rep.details["growth_exponent"] == pytest.approx(0.4883, abs=0.01)
    assert 0.4 <= rep.details["growth_exponent"] <= 0.6


def test_bound_check_scale_vector_validation(gaussian_256, cfg_default):
    with pytest.raises(ValueError):
        morrey_bound_check(gaussian_256, MEX, (1.0, 2.0), 0.9, cfg_default)


@pytest.mark.parametrize(
    "grid, a",
    [
        (Grid((axis_centered(0.0625, 256),)), (1.0,)),
        (Grid((axis_centered(0.0625, 2048),)), (-3.0,)),
        (Grid((axis_centered(0.25, 30), axis_centered(0.2, 27))), (0.5, -2.0)),
    ],
    ids=["256", "2048", "30x27"],
)
def test_bound_check_takes_one_coefficient_pass(grid, a, monkeypatch):
    """The slice at a and the whole growth sweep come from one cfrwt_fast
    call, whose rows equal one single-vector call per scale vector."""
    f = sample(grid, lambda *axes: np.exp(-sum(x**2 for x in axes) / 2) * np.exp(1j * axes[0]))
    calls = []
    monkeypatch.setattr(morrey, "cfrwt_fast", lambda *args: calls.append(args) or cfrwt_fast(*args))
    morrey_bound_check(f, MEX, a, 0.9, default_morrey_config(grid, 0.5))
    assert len(calls) == 1
    _, slices = morrey._slices(f, MEX, a, 0.9, morrey._GROWTH_SWEEP)
    vectors = [a] + [(s,) * grid.ndim for s in morrey._GROWTH_SWEEP]
    assert len(slices) == len(vectors)
    for vec, got in zip(vectors, slices):
        mags = np.abs(vec)
        one = ScaleGrid(np.array([vec], dtype=float), 0.0, float(mags.min()), float(mags.max()), "fixed")
        assert np.array_equal(got.values, cfrwt_fast(f, MEX, 0.9, one).values[0])


def test_bound_check_two_dimensional():
    grid = Grid((axis_centered(0.25, 64), axis_centered(0.25, 64)))
    f = sample(grid, lambda x, y: np.exp(-(x**2 + y**2) / 2))
    cfg = default_morrey_config(grid, 1.0)
    rep = morrey_bound_check(f, MEX, (1.0, 1.0), 0.9, cfg)
    assert rep.passed
    assert rep.ratio < 1.0


# ------------------------------------------------------------------
# perturbation bounds


@pytest.fixture(scope="module")
def bump():
    grid = Grid((axis_centered(0.0625, 256),))
    return sample(grid, lambda t: np.exp(-((t - 0.4) ** 2) / 2))


def _perturbed_wavelet(eps):
    return WaveletSpec(
        name=f"mexhat_pert_{eps}",
        profile=lambda t: MEX.profile(t) + eps * DOG3.profile(t),
        support_radius=max(MEX.support_radius, DOG3.support_radius),
    )


def test_distance_identical_pair(bump, cfg_default):
    rep = morrey_distance_checks(bump, bump, MEX, MEX, (1.0,), 0.9, cfg_default)
    assert rep.passed
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0
    assert rep.details["triangle_consistent"]


def test_wavelet_perturbation_linear(bump, cfg_default):
    # the slice is linear in the wavelet, so the left side scales
    # exactly with eps
    lhs = {}
    for eps in (0.1, 0.01):
        rep = morrey_distance_checks(bump, bump, MEX, _perturbed_wavelet(eps), (1.0,), 0.9, cfg_default)
        assert rep.passed
        wp = rep.details["wavelet_perturbation"]
        assert wp["lhs"] <= wp["rhs"]
        lhs[eps] = wp["lhs"]
    assert lhs[0.1] / lhs[0.01] == pytest.approx(10.0, rel=1e-9)


def test_wavelet_l1_distance_matches_norm(cfg_default):
    # |phi - (phi + eps dog)| integrates to eps * |dog|
    rep_details = morrey_distance_checks(
        sample(Grid((axis_centered(0.0625, 256),)), lambda t: np.exp(-(t**2) / 2)),
        sample(Grid((axis_centered(0.0625, 256),)), lambda t: np.exp(-(t**2) / 2)),
        MEX,
        _perturbed_wavelet(0.1),
        (1.0,),
        0.9,
        cfg_default,
    ).details
    assert rep_details["wavelet_l1_distance"] / 0.1 == pytest.approx(
        wavelet_l1_norm(DOG3), rel=1e-3
    )


def test_signal_perturbation_linear(bump, cfg_default):
    lhs = {}
    for eps in (0.1, 0.01):
        g = SampledSignal(bump.grid, bump.values + eps * np.exp(-(bump.grid.meshgrid()[0] ** 2)))
        rep = morrey_distance_checks(bump, g, MEX, MEX, (1.0,), 0.9, cfg_default)
        assert rep.passed
        sp = rep.details["signal_perturbation"]
        assert sp["lhs"] <= sp["rhs"]
        lhs[eps] = sp["lhs"]
    assert lhs[0.1] / lhs[0.01] == pytest.approx(10.0, rel=1e-9)


def test_joint_perturbation(bump, cfg_default):
    g = SampledSignal(bump.grid, bump.values + 0.05 * np.exp(-(bump.grid.meshgrid()[0] ** 2)))
    rep = morrey_distance_checks(bump, g, MEX, _perturbed_wavelet(0.05), (2.0,), 0.9, cfg_default)
    assert rep.passed
    assert rep.details["triangle_consistent"]
    assert rep.lhs <= rep.rhs


def test_distance_grid_mismatch(bump, cfg_default):
    other = sample(Grid((axis_centered(0.125, 128),)), lambda t: np.exp(-(t**2)))
    with pytest.raises(GridMismatch):
        morrey_distance_checks(bump, other, MEX, MEX, (1.0,), 0.9, cfg_default)
