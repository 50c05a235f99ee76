"""Acceptance gate: fourteen end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured
numbers next to each verdict.  Every criterion exercises the public API
at its stated tolerance; nothing here is relaxed relative to the
library's own verification suites.
"""

import json
import math
import time

import numpy as np
import pytest

from frwt import (
    CfrwtCoefficients,
    FrequencyScan,
    MorreyConfig,
    SampledSignal,
    WaveletSpec,
    admissibility_constant,
    cfrwt_fast,
    default_morrey_config,
    frft_direct,
    frft_fast,
    frft_inverse,
    get_wavelet,
    heisenberg_cfrwt,
    heisenberg_two_domain,
    lemma_moment_identity_check,
    local_uncertainty_scan,
    log_scale_grid,
    morrey_bound_check,
    morrey_distance_checks,
    morrey_norm,
    plancherel_check,
    range_membership_residual,
    reconstruct,
    restricted_energy_identity_check,
    spectral_identity_check,
)
from frwt.cli import main
from frwt.grid import Grid, axis_centered, l2_norm, sample

from conftest import random_smooth_signal

HALF_PI = math.pi / 2
FIVE_ORDERS = (0.4, 0.9, HALF_PI, 2.2, 2.9)
ALPHA = 0.9
BETA = ALPHA - HALF_PI


def _verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def grid_fine():
    return Grid((axis_centered(0.0625, 256),))


@pytest.fixture(scope="module")
def mexhat():
    return get_wavelet("mexican_hat")


@pytest.fixture(scope="module")
def scales_default():
    return log_scale_grid(2.0**-4, 2.0**4, 64, signs="both")


@pytest.fixture(scope="module")
def scan_default():
    return FrequencyScan(u_min=1e-4, u_max=32.0)


@pytest.fixture(scope="module")
def gabor(grid_fine):
    return sample(
        grid_fine,
        lambda t: np.exp(-((t - 0.5) ** 2) / (2 * 0.4**2)) * np.exp(3.0j * t),
    )


def test_criterion_01_fast_matches_direct():
    start = time.perf_counter()
    worst = 0.0
    for grid in (
        Grid((axis_centered(0.25, 64),)),
        Grid((axis_centered(0.5, 32), axis_centered(0.5, 32))),
    ):
        for k, alpha in enumerate(FIVE_ORDERS):
            f = random_smooth_signal(grid, seed=10 + k)
            dev = np.max(np.abs(frft_fast(f, alpha).values - frft_direct(f, alpha).values))
            worst = max(worst, float(dev))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst <= 1e-8 and elapsed < 10.0,
        f"fast vs direct transform, worst deviation {worst:.2e} <= 1e-08 "
        f"(1-D N=64 and 2-D 32x32, five orders, {elapsed:.1f} s < 10 s)",
    )


def test_criterion_02_unitarity(grid_fine):
    worst = 0.0
    for seed in range(4):
        f = random_smooth_signal(grid_fine, seed=20 + seed)
        norm = l2_norm(f)
        for alpha in (0.9, 1.8, 2.6):
            worst = max(worst, abs(l2_norm(frft_fast(f, alpha)) - norm) / norm)
    _verdict(2, worst <= 1e-6, f"energy preservation, worst drift {worst:.2e} <= 1e-06")


def test_criterion_03_order_additivity():
    grid = Grid((axis_centered(0.0625, 1024),))
    rng = np.random.default_rng(1234)
    worst = 0.0
    for k in range(10):
        f = random_smooth_signal(grid, seed=50 + k)
        while True:
            a, b = rng.uniform(0.3, 2.8, 2)
            if min(abs(math.sin(a + b)), abs(math.sin(a)), abs(math.sin(b))) > 0.15:
                break
        cascade = frft_fast(frft_fast(f, b), a)
        direct = frft_direct(f, a + b, output_grid=cascade.grid)
        dev = l2_norm(SampledSignal(cascade.grid, cascade.values - direct.values)) / l2_norm(direct)
        worst = max(worst, dev)
    _verdict(
        3, worst <= 1e-4, f"order additivity on 10 random pairs, worst {worst:.2e} <= 1e-04"
    )


def test_criterion_04_inversion(grid_fine):
    f = random_smooth_signal(grid_fine, seed=31)
    back = frft_inverse(frft_fast(f, 1.1), 1.1)
    err = l2_norm(SampledSignal(grid_fine, back.values - f.values)) / l2_norm(f)
    _verdict(4, err <= 1e-6, f"inversion round trip at N=256, error {err:.2e} <= 1e-06")


def test_criterion_05_convolution_identity():
    grid = Grid((axis_centered(24 / 512, 512),))
    f = random_smooth_signal(grid, seed=60)
    g = random_smooth_signal(grid, seed=61)
    worst = 0.0
    for alpha in FIVE_ORDERS:
        rep = spectral_identity_check(f, g, alpha)
        worst = max(worst, rep.details["max_relative_deviation"])
        assert rep.passed
    _verdict(
        5,
        worst <= 1e-6,
        f"convolution spectral identity at five orders, worst {worst:.2e} <= 1e-06",
    )


def test_criterion_06_admissibility(mexhat, scan_default):
    adm = admissibility_constant(mexhat, HALF_PI, scan=scan_default)
    val = adm.value.real
    gauss = admissibility_constant(get_wavelet("gaussian"), HALF_PI, scan=scan_default)
    halvings = len(gauss.trace) - 1
    ok = abs(val - 1.0) <= 0.02 and gauss.verdict == "divergent" and halvings <= 6
    _verdict(
        6,
        ok,
        f"mexican hat constant {val:.4f} within 1.00 +/- 0.02; "
        f"gaussian flagged {gauss.verdict} after {halvings} halvings",
    )


def test_criterion_07_plancherel(grid_fine, mexhat, gabor, scan_default):
    start = time.perf_counter()
    ratios = []
    for a_min, a_max, cells in [(0.25, 4.0, 32), (0.125, 8.0, 48), (2.0**-4, 2.0**4, 64)]:
        sg = log_scale_grid(a_min, a_max, cells, signs="both")
        cc = cfrwt_fast(gabor, mexhat, ALPHA, sg)
        ratios.append(plancherel_check(cc, gabor, scan=scan_default).ratio)
    elapsed = time.perf_counter() - start
    in_band = 0.95 <= ratios[2] <= 1.05
    monotone = ratios[0] < ratios[1] < ratios[2]
    _verdict(
        7,
        in_band and monotone and elapsed < 15.0,
        f"energy ratio {ratios[2]:.4f} in [0.95, 1.05] over signed scales "
        f"2^-4..2^4 (64 cells, N=256), nested refinement "
        f"{ratios[0]:.3f} -> {ratios[1]:.3f} -> {ratios[2]:.3f} rising toward 1, "
        f"{elapsed:.1f} s < 15 s",
    )


def test_criterion_08_reconstruction(grid_fine, mexhat, scales_default, scan_default):
    f = sample(grid_fine, lambda t: np.exp(-(t**2) / (2 * 0.5**2)) * np.exp(5.0j * t))
    coeffs = cfrwt_fast(f, mexhat, ALPHA, scales_default)
    single = reconstruct(coeffs, mexhat, mexhat, scan=scan_default)
    err_single = l2_norm(SampledSignal(grid_fine, single.values - f.values)) / l2_norm(f)
    two = reconstruct(coeffs, get_wavelet("dog4"), mexhat, scan=scan_default)
    err_two = l2_norm(SampledSignal(grid_fine, two.values - f.values)) / l2_norm(f)
    _verdict(
        8,
        err_single <= 0.05 and err_two <= 0.08,
        f"resynthesis error {err_single:.3f} <= 0.05 (same wavelet), "
        f"{err_two:.3f} <= 0.08 (two-wavelet)",
    )


def test_criterion_09_kernel_discriminator(grid_fine, mexhat, scales_default, scan_default):
    worst_genuine = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-0.5, 0.5)
        w0 = rng.uniform(3.5, 5.0)
        s0 = rng.uniform(0.35, 0.55)
        f = sample(
            grid_fine, lambda t: np.exp(-((t - c) ** 2) / (2 * s0**2)) * np.exp(1j * w0 * t)
        )
        coeffs = cfrwt_fast(f, mexhat, ALPHA, scales_default)
        res = range_membership_residual(coeffs, mexhat, scan=scan_default)
        worst_genuine = max(worst_genuine, res)

    # noise arrays on the last genuine field's grid, scales, order and wavelet
    min_noise = math.inf
    for seed in range(100, 105):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal(coeffs.values.shape) + 1j * rng.standard_normal(coeffs.values.shape)
        fake = CfrwtCoefficients(arr, coeffs.b_grid, coeffs.scales, coeffs.order, coeffs.wavelet)
        min_noise = min(
            min_noise, range_membership_residual(fake, mexhat, scan=scan_default)
        )
    _verdict(
        9,
        worst_genuine <= 0.05 and min_noise >= 0.20,
        f"range membership: genuine fields worst residual {worst_genuine:.3f} <= 5%, "
        f"noise fields min residual {min_noise:.3f} >= 20% (5 trials each)",
    )


def test_criterion_10_two_domain_floor(grid_fine):
    gauss = sample(grid_fine, lambda t: np.exp(-(t**2) / 2))
    rep = heisenberg_two_domain(gauss, HALF_PI, 0.0)
    quarter_pi = math.pi / 4
    extremal_ok = (
        abs(rep.ratio - 1.0) <= 1e-4
        and abs(rep.lhs - quarter_pi) <= 1e-8
        and abs(rep.rhs - quarter_pi) <= 1e-8
    )

    rng = np.random.default_rng(42)
    worst = math.inf
    for seed in range(20):
        f = random_smooth_signal(grid_fine, seed=seed)
        while True:
            a, b = rng.uniform(0.3, 2.8, 2)
            if abs(math.sin(a - b)) > 0.2:
                break
        worst = min(worst, heisenberg_two_domain(f, a, b).ratio)
    _verdict(
        10,
        extremal_ok and worst >= 1.0 - 1e-3,
        f"dispersion product floor holds on 20 fixtures (worst ratio {worst:.3f} >= 1); "
        f"gaussian at orders (pi/2, 0) is extremal, both sides pi/4 "
        f"(ratio off by {abs(rep.ratio - 1.0):.1e} <= 1e-04)",
    )


def test_criterion_11_coefficient_floor(grid_fine, mexhat, gabor, scales_default):
    field = cfrwt_fast(gabor, mexhat, ALPHA, scales_default)
    rep = heisenberg_cfrwt(field, gabor, BETA)
    moment = lemma_moment_identity_check(field, gabor)
    energy = restricted_energy_identity_check(field, gabor, (2.5,), 1.5)
    ok = (
        rep.passed
        and rep.ratio >= 0.95
        and moment.passed
        and abs(moment.ratio - 1.0) <= 0.05
        and energy.passed
        and abs(energy.ratio - 1.0) <= 0.05
    )
    _verdict(
        11,
        ok,
        f"coefficient-field floor: normalized ratio {rep.ratio:.2f} >= 0.95; "
        f"spectral moment identity off by {abs(moment.ratio - 1.0):.3f} <= 5%, "
        f"ball-restricted energy identity off by {abs(energy.ratio - 1.0):.3f} <= 5%",
    )


def test_criterion_12_local_uncertainty():
    grid = Grid((axis_centered(0.0625, 2048),))

    def dilate(s):
        return sample(grid, lambda t: s**-0.5 * np.exp(-((t / s) ** 2) / 2))

    def family(count):
        return [dilate(float(s)) for s in np.exp2(np.linspace(-3, 3, count))]

    def balls(count):
        return [((0.0,), float(r)) for r in np.exp2(np.linspace(-3, 2, count))]

    lines = []
    ok = True
    for theta in (0.25, 0.4):
        coarse = local_uncertainty_scan(family(13), HALF_PI, 0.0, theta, balls(11))
        fine = local_uncertainty_scan(family(25), HALF_PI, 0.0, theta, balls(21))
        cap = 2.0 * theta + 0.1
        stable = coarse.a_hat <= fine.a_hat <= 1.1 * coarse.a_hat
        ok = ok and coarse.envelope_slope <= cap and stable
        lines.append(
            f"theta={theta}: slope {coarse.envelope_slope:.3f} <= {cap:.2f}, "
            f"constant {coarse.a_hat:.3f} -> {fine.a_hat:.3f} within 10%"
        )
    _verdict(12, ok, "small-ball envelope. " + "; ".join(lines))


def test_criterion_13_morrey_bounds(grid_fine, mexhat):
    ind = sample(
        grid_fine, lambda t: np.where(np.abs(t) < 1.0, 1.0, 0.0) + 0.5 * (np.abs(t) == 1.0)
    )
    octave = MorreyConfig(
        0.5, tuple((float(c),) for c in range(-8, 8)), (0.125, 0.25, 0.5, 1.0, 2.0, 4.0)
    )
    ind_val = morrey_norm(ind, octave).value
    scan_cfg = default_morrey_config(grid_fine, 0.5)

    gauss = sample(grid_fine, lambda t: np.exp(-(t**2) / 2))
    bound = morrey_bound_check(gauss, mexhat, (1.0,), ALPHA, scan_cfg)

    wide = Grid((axis_centered(0.0625, 2048),))
    fw = sample(wide, lambda t: np.exp(-(t**2) / (2 * 24.0**2)))
    growth = morrey_bound_check(
        fw, get_wavelet("gaussian"), (1.0,), HALF_PI, default_morrey_config(wide, 0.5)
    )
    exponent = growth.details["growth_exponent"]

    bump = sample(grid_fine, lambda t: np.exp(-((t - 0.4) ** 2) / 2))
    other = SampledSignal(bump.grid, bump.values + 0.05 * np.exp(-(grid_fine.meshgrid()[0] ** 2)))
    dog3 = get_wavelet("dog3")
    pert = WaveletSpec(
        name="mexhat_perturbed",
        profile=lambda t: mexhat.profile(t) + 0.05 * dog3.profile(t),
        support_radius=max(mexhat.support_radius, dog3.support_radius),
    )
    dist = morrey_distance_checks(bump, other, mexhat, pert, (2.0,), ALPHA, scan_cfg)
    wav = dist.details["wavelet_perturbation"]
    sig = dist.details["signal_perturbation"]

    # four inequalities on each fixture: the scale-slice bound, its L1
    # companion, and the two single-swap perturbation bounds (their sum
    # bounding the joint swap)
    all_hold = (
        bound.passed
        and growth.passed
        and dist.passed
        and wav["lhs"] <= wav["rhs"]
        and sig["lhs"] <= sig["rhs"]
        and dist.lhs <= dist.rhs
    )
    ok = all_hold and abs(ind_val - 2.0) <= 1e-6 and 0.4 <= exponent <= 0.6
    _verdict(
        13,
        ok,
        f"all slice, L1, and perturbation inequalities hold; indicator norm "
        f"{ind_val:.6f} = 2 +/- 1e-06 at nu=1/2; scale sweep a=1..8 grows with "
        f"exponent {exponent:.3f} in [0.4, 0.6]",
    )


def test_criterion_14_verification_command(capsys):
    start = time.perf_counter()
    rc = main(["verify", "all"])
    elapsed = time.perf_counter() - start
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    records = [json.loads(ln) for ln in lines]
    all_pass = rc == 0 and records and all(rec["pass"] for rec in records)
    # re-emit the one-line verdict after the captured JSON stream
    _verdict(
        14,
        all_pass and elapsed < 60.0,
        f"`verify all` emitted {len(records)} JSON records, every one passing, "
        f"in {elapsed:.0f} s < 60 s",
    )
