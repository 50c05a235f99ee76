"""Dispersion moments, uncertainty floors, and the local-energy scan."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest

from conftest import random_smooth_signal
from frwt import uncertainty, verify
from frwt.errors import (
    GridMismatch,
    InadmissibleWavelet,
    InvalidAnglePair,
    TailDominated,
    ThetaAtBoundary,
)
from frwt.admissibility import admissibility_constant
from frwt.cfrwt import cfrwt_fast, plancherel_check
from frwt.grid import Grid, SampledSignal, axis_centered, l2_norm, sample
from frwt.io import RunConfig
from frwt.scales import log_scale_grid
from frwt.uncertainty import (
    dispersion,
    heisenberg_two_domain,
    heisenberg_cfrwt,
    lemma_moment_identity_check,
    restricted_energy_identity_check,
    local_uncertainty_scan,
)
from frwt.verify import _gabor, _grid_256, _meta, run_suite
from frwt.wavelets import get_wavelet
from oracles import per_signal_local_scan

HALF_PI = math.pi / 2
SQRT_PI_HALF = 0.8862269254527580
QUARTER_PI = 0.7853981633974483

MEX = get_wavelet("mexican_hat")
GAUSS_WAVELET = get_wavelet("gaussian")


# ------------------------------------------------------------------
# dispersion


def test_dispersion_gaussian_closed_form(gaussian_256):
    # second moment of exp(-t^2): sqrt(pi)/2
    assert dispersion(gaussian_256, 1.0) == pytest.approx(SQRT_PI_HALF, abs=1e-8)


def test_dispersion_zero_signal(grid_256):
    zero = sample(grid_256, lambda t: np.zeros_like(t))
    assert dispersion(zero, 1.0) == 0.0


def test_dispersion_shift_increases(grid_256, gaussian_256):
    shifted = sample(grid_256, lambda t: np.exp(-((t - 1.2) ** 2) / 2))
    assert dispersion(shifted, 1.0) > dispersion(gaussian_256, 1.0)


def test_dispersion_theta_validation(gaussian_256):
    with pytest.raises(ValueError):
        dispersion(gaussian_256, 0.0)
    with pytest.raises(ValueError):
        dispersion(gaussian_256, 9.0)


def test_dispersion_tail_dominated(grid_256):
    # |f|^2 t^2 grows toward the window edge
    slow = sample(grid_256, lambda t: (1.0 + t**2) ** -0.4)
    with pytest.raises(TailDominated):
        dispersion(slow, 1.0)


# ------------------------------------------------------------------
# two-domain floor


def test_gaussian_quarter_cycle_extremal(gaussian_256):
    # the centered Gaussian meets the floor exactly at the quarter cycle
    rep = heisenberg_two_domain(gaussian_256, HALF_PI, 0.0)
    assert rep.ratio == pytest.approx(1.0, abs=1e-4)
    assert rep.lhs == pytest.approx(QUARTER_PI, abs=1e-10)
    assert rep.rhs == pytest.approx(QUARTER_PI, abs=1e-12)
    assert rep.passed


def test_degenerate_angle_pair_rejected(gaussian_256):
    with pytest.raises(InvalidAnglePair):
        heisenberg_two_domain(gaussian_256, 0.9, 0.9)
    with pytest.raises(InvalidAnglePair):
        heisenberg_two_domain(gaussian_256, 0.9, 0.9 - math.pi)


def test_shifted_gaussian_strictly_above_floor(grid_256):
    shifted = sample(grid_256, lambda t: np.exp(-((t - 1.2) ** 2) / 2))
    rep = heisenberg_two_domain(shifted, HALF_PI, 0.0)
    assert 1.5 < rep.ratio < 5.0


def test_modulated_gaussian_known_ratio(grid_256):
    # carrier 2 shifts the frequency moment to (1/2 + 4) sqrt(pi):
    # product over floor comes out at exactly 9
    mod = sample(grid_256, lambda t: np.exp(-(t**2) / 2) * np.exp(2.0j * t))
    rep = heisenberg_two_domain(mod, HALF_PI, 0.0)
    assert rep.ratio == pytest.approx(9.0, abs=1e-6)


def test_random_fixture_suite_respects_floor(grid_256):
    rng = np.random.default_rng(42)
    for seed in range(20):
        f = random_smooth_signal(grid_256, seed)
        while True:
            a, b = rng.uniform(0.3, 2.8, 2)
            if abs(math.sin(a - b)) > 0.2:
                break
        rep = heisenberg_two_domain(f, a, b)
        assert rep.ratio >= 1.0 - 1e-3, (seed, a, b, rep.ratio)


def test_scaling_leaves_ratio_invariant(grid_256):
    f = random_smooth_signal(grid_256, 3)
    g = SampledSignal(f.grid, 3.0 * f.values)
    r1 = heisenberg_two_domain(f, 1.1, 0.2)
    r2 = heisenberg_two_domain(g, 1.1, 0.2)
    # both sides scale by |3|^4 = 81
    assert r2.lhs == pytest.approx(81.0 * r1.lhs, rel=1e-12)
    assert r2.rhs == pytest.approx(81.0 * r1.rhs, rel=1e-12)
    assert r2.ratio == pytest.approx(r1.ratio, rel=1e-10)


# ------------------------------------------------------------------
# coefficient-field floor


@pytest.fixture(scope="module")
def scales_wide():
    return log_scale_grid(2.0**-4, 2.0**4, 64, signs="both")


@pytest.fixture(scope="module")
def gabor():
    grid = Grid((axis_centered(0.0625, 256),))
    return sample(grid, lambda t: np.exp(-((t - 0.5) ** 2) / (2 * 0.4**2)) * np.exp(3.0j * t))


@pytest.fixture(scope="module")
def gabor_field(gabor, scales_wide):
    return cfrwt_fast(gabor, MEX, 0.9, scales_wide)


def test_cfrwt_heisenberg_gabor(gabor_field, gabor):
    rep = heisenberg_cfrwt(gabor_field, gabor, 0.9 - HALF_PI)
    assert rep.passed
    # floor is extremely loose for a generic wavelet; the chirp in b
    # spreads the beta-spectrum far beyond the minimizer
    assert 100.0 < rep.ratio < 250.0
    assert rep.details["raw_ratio"] > 1.0
    assert 0.9 < rep.details["identity_ratio"] < 1.1


def test_cfrwt_heisenberg_gaussian_signal(gaussian_256, scales_wide):
    field = cfrwt_fast(gaussian_256, MEX, 0.9, scales_wide)
    rep = heisenberg_cfrwt(field, gaussian_256, 0.9 - HALF_PI)
    assert rep.passed
    assert 5.0 < rep.ratio < 30.0


def test_cfrwt_heisenberg_gates_admissibility(gaussian_256, scales_wide):
    field = cfrwt_fast(gaussian_256, GAUSS_WAVELET, 0.9, scales_wide)
    with pytest.raises(InadmissibleWavelet):
        heisenberg_cfrwt(field, gaussian_256, 0.9 - HALF_PI)


def test_cfrwt_heisenberg_angle_gap(gabor_field, gabor):
    with pytest.raises(InvalidAnglePair):
        heisenberg_cfrwt(gabor_field, gabor, 0.9)


def test_moment_identity_nested_ranges(gabor):
    # truncation loses nonnegative mass: ratio climbs toward 1 from below
    ratios = []
    for amin, amax, cells in [(0.25, 4.0, 32), (0.125, 8.0, 48), (2.0**-4, 2.0**4, 64)]:
        sg = log_scale_grid(amin, amax, cells, signs="both")
        ratios.append(lemma_moment_identity_check(cfrwt_fast(gabor, MEX, 0.9, sg), gabor).ratio)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    assert ratios[0] == pytest.approx(0.562280, abs=1e-3)
    assert ratios[1] == pytest.approx(0.927022, abs=1e-3)
    assert ratios[2] == pytest.approx(0.994102, abs=1e-3)
    assert abs(ratios[2] - 1.0) <= 0.05


def test_restricted_energy_identity(gabor_field, gabor):
    for center, radius, expect in [
        ((0.0,), 2.0, 0.964200),
        ((2.5,), 1.5, 0.998578),
        ((0.0,), 6.0, 0.986169),
    ]:
        rep = restricted_energy_identity_check(gabor_field, gabor, center, radius)
        assert rep.passed
        assert rep.ratio == pytest.approx(expect, abs=1e-3)
        assert rep.details["radius"] == radius


def test_restricted_energy_ball_validation(gabor_field, gabor):
    with pytest.raises(ValueError):
        restricted_energy_identity_check(gabor_field, gabor, (0.0,), -1.0)
    with pytest.raises(ValueError):
        # ball far outside the spectral window holds no samples
        restricted_energy_identity_check(gabor_field, gabor, (300.0,), 0.01)


def test_ball_centre_must_match_the_grid_dimension(gabor_field, gabor):
    # a 2-d centre on a 1-d spectrum: zip over the axes would ignore the 99.0
    with pytest.raises(ValueError, match="wrong dimension"):
        restricted_energy_identity_check(gabor_field, gabor, (2.5, 99.0), 1.5)
    with pytest.raises(ValueError, match="wrong dimension"):
        local_uncertainty_scan([gabor], HALF_PI, 0.0, 0.25, [((0.0, 99.0), 1.0)])


@pytest.mark.parametrize(
    "check",
    [
        lambda coeffs, f: heisenberg_cfrwt(coeffs, f, 0.9 - HALF_PI),
        lambda coeffs, f: lemma_moment_identity_check(coeffs, f),
        lambda coeffs, f: restricted_energy_identity_check(coeffs, f, (2.5,), 1.5),
    ],
    ids=["heisenberg_cfrwt", "lemma_moment_identity_check", "restricted_energy_identity_check"],
)
def test_coefficient_checks_refuse_a_signal_on_another_grid(check, gabor_field):
    other = sample(Grid((axis_centered(0.125, 128),)), lambda t: np.exp(-(t**2)))
    with pytest.raises(GridMismatch):
        check(gabor_field, other)


@pytest.mark.parametrize(
    "check",
    [
        lambda coeffs, f: plancherel_check(coeffs, f),
        lambda coeffs, f: heisenberg_cfrwt(coeffs, f, 0.9 - HALF_PI),
        lambda coeffs, f: lemma_moment_identity_check(coeffs, f),
        lambda coeffs, f: restricted_energy_identity_check(coeffs, f, (2.5,), 1.5),
        lambda coeffs, f: heisenberg_two_domain(f, HALF_PI, 0.0),
    ],
    ids=[
        "plancherel_check",
        "heisenberg_cfrwt",
        "lemma_moment_identity_check",
        "restricted_energy_identity_check",
        "heisenberg_two_domain",
    ],
)
def test_zero_signal_fails_the_check_without_a_traceback(check, grid_256, scales_wide):
    # both sides vanish: a ratio of 0 / 0 reads zero, a failed check
    zero = sample(grid_256, lambda t: np.zeros_like(t))
    field = cfrwt_fast(zero, MEX, 0.9, scales_wide)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check(field, zero)
    assert not rep.passed
    assert rep.lhs == rep.rhs == rep.ratio == 0.0


def test_verify_heisenberg_takes_one_coefficient_field(monkeypatch):
    # the three coefficient-side records share one field of the gabor fixture
    calls = []

    def counted(*args):
        calls.append(args)
        return cfrwt_fast(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "frwt" and getattr(module, "cfrwt_fast", None) is cfrwt_fast:
            monkeypatch.setattr(module, "cfrwt_fast", counted)
    run_suite("heisenberg", RunConfig())
    assert len(calls) == 1


# ------------------------------------------------------------------
# local scan


@pytest.fixture(scope="module")
def wide_grid():
    return Grid((axis_centered(0.0625, 2048),))


def _dilates(wide_grid, count):
    def one(s):
        return sample(wide_grid, lambda t: s**-0.5 * np.exp(-((t / s) ** 2) / 2))

    return [one(float(s)) for s in np.exp2(np.linspace(-3, 3, count))]


def _balls(count):
    return [((0.0,), float(r)) for r in np.exp2(np.linspace(-3, 2, count))]


@pytest.mark.parametrize(
    "theta,slope_cap,a_hat_band",
    [(0.25, 0.6, (0.85, 0.95)), (0.4, 0.9, (0.87, 0.98))],
)
def test_local_scan_envelope(wide_grid, theta, slope_cap, a_hat_band):
    # dilated Gaussians saturate the measure exponent of the bound
    rep = local_uncertainty_scan(_dilates(wide_grid, 13), HALF_PI, 0.0, theta, _balls(11))
    assert rep.branch == "subcritical"
    assert rep.envelope_slope <= slope_cap
    assert a_hat_band[0] < rep.a_hat < a_hat_band[1]


@pytest.mark.parametrize("theta", [0.25, 0.4])
def test_local_scan_refinement_stable(wide_grid, theta):
    coarse = local_uncertainty_scan(_dilates(wide_grid, 13), HALF_PI, 0.0, theta, _balls(11))
    fine = local_uncertainty_scan(_dilates(wide_grid, 25), HALF_PI, 0.0, theta, _balls(21))
    # refinements are supersets: the supremum can only grow, and by
    # little once the family is rich enough
    assert coarse.a_hat <= fine.a_hat <= 1.1 * coarse.a_hat


def test_local_scan_supercritical_branch(wide_grid):
    rep = local_uncertainty_scan(_dilates(wide_grid, 13), HALF_PI, 0.0, 1.5, _balls(11))
    assert rep.branch == "supercritical"
    assert 0.9 < rep.envelope_slope < 1.2
    assert rep.a_hat <= 1.0


def test_local_scan_theta_boundary(wide_grid):
    with pytest.raises(ThetaAtBoundary):
        local_uncertainty_scan(_dilates(wide_grid, 3), HALF_PI, 0.0, 0.5, _balls(3))


def test_local_scan_validation(wide_grid):
    fam = _dilates(wide_grid, 3)
    with pytest.raises(ValueError):
        local_uncertainty_scan([], HALF_PI, 0.0, 0.25, _balls(3))
    with pytest.raises(ValueError):
        local_uncertainty_scan(fam, HALF_PI, 0.0, 0.25, [])
    with pytest.raises(ValueError):
        local_uncertainty_scan(fam, HALF_PI, 0.0, 9.0, _balls(3))
    with pytest.raises(ValueError):
        local_uncertainty_scan(fam, HALF_PI, 0.0, 0.25, [((0.0,), 0.0)])
    with pytest.raises(InvalidAnglePair):
        local_uncertainty_scan(fam, HALF_PI, HALF_PI, 0.25, _balls(3))


@pytest.mark.parametrize(
    "alpha, beta, theta",
    [(HALF_PI, 0.0, 0.25), (HALF_PI, 0.0, 1.5), (math.pi, HALF_PI, 0.25)],
    ids=["subcritical", "supercritical", "delta_order"],
)
def test_local_scan_equals_per_signal_oracle(wide_grid, alpha, beta, theta, monkeypatch):
    """One plan and one batched transform for the whole family (frft_fast's
    exact dispatch at alpha = pi) change no bit of the scan, and only the
    supercritical branch computes the norms it reads."""
    family = [
        sample(wide_grid, lambda t, s=s: s**-0.5 * np.exp(-(((t - 0.3) / s) ** 2) / 2))
        for s in np.exp2(np.linspace(-3, 3, 13))
    ]
    balls = _balls(11) + [((0.5,), 0.75), ((-1.25,), 1.5)]
    norms = []
    monkeypatch.setattr(uncertainty, "l2_norm", lambda f: norms.append(f) or l2_norm(f))
    rep = uncertainty.local_uncertainty_scan(family, alpha, beta, theta, balls)
    assert len(norms) == (len(family) if rep.branch == "supercritical" else 0)
    entries, a_hat, slope = per_signal_local_scan(family, alpha, beta, theta, balls)
    assert rep.entries == entries
    assert rep.a_hat == a_hat
    assert rep.envelope_slope == slope


def test_local_scan_keeps_the_tail_rule_per_signal(wide_grid):
    # one slowly decaying member among well-contained ones: its moment is
    # taken in the same batch as theirs and still refused
    fam = _dilates(wide_grid, 3)
    fam.insert(1, sample(wide_grid, lambda t: (1.0 + t**2) ** -0.4))
    with pytest.raises(TailDominated):
        local_uncertainty_scan(fam, HALF_PI, 0.0, 0.25, _balls(3))
    local_uncertainty_scan(fam[:1] + fam[2:], HALF_PI, 0.0, 0.25, _balls(3))


def test_local_scan_rejects_a_family_on_several_grids(wide_grid):
    other = Grid((axis_centered(0.125, 2048),))
    fam = _dilates(wide_grid, 2) + _dilates(other, 1)
    with pytest.raises(GridMismatch):
        local_uncertainty_scan(fam, HALF_PI, 0.0, 0.25, _balls(3))


def test_verify_heisenberg_reads_the_configured_admissibility_band():
    # u_max = 8 moves the mexican hat constant in its last digits; every
    # coefficient-side record must be taken with the configured scan
    cfg = RunConfig(u_max=8.0)
    scan = cfg.frequency_scan()
    mex = get_wavelet("mexican_hat")
    adm = admissibility_constant(mex, cfg.alpha, scan=scan).value.real
    assert adm != admissibility_constant(mex, cfg.alpha).value.real
    records = {r.name: r for r in run_suite("heisenberg", cfg)}
    gabor = _gabor(_grid_256())
    field = cfrwt_fast(gabor, mex, cfg.alpha, cfg.scale_grid())

    assert records["coefficient_moment_identity"].details["admissibility"] == adm
    cr = heisenberg_cfrwt(field, gabor, cfg.beta, scan=scan)
    assert records["heisenberg_cfrwt_normalized"].details["raw_ratio"] == cr.details["raw_ratio"]
    restricted = restricted_energy_identity_check(field, gabor, (2.5,), 1.5, scan=scan)
    assert records["restricted_energy_identity"].rhs == restricted.rhs
    # every number of the three records is the public check's own
    grid = _grid_256()
    assert records["heisenberg_cfrwt_normalized"].to_json() == verify._check(
        "heisenberg_cfrwt_normalized", cr.lhs, cr.rhs, cr.tolerance, cr.passed, {"raw_ratio": cr.details["raw_ratio"]}, grid
    ).to_json()
    lemma = lemma_moment_identity_check(field, gabor, scan=scan)
    assert records["coefficient_moment_identity"].to_json() == _meta(lemma, grid).to_json()
    assert records["restricted_energy_identity"].to_json() == _meta(restricted, grid).to_json()


def test_the_local_suite_reads_four_independent_scans(wide_grid):
    """The coarse and fine scans the local suite reads from one table equal
    four scans of their own families and balls, bit for bit."""
    scans = verify._local_scans(wide_grid)
    assert [theta for theta, _, _ in scans] == [0.25, 0.4]
    for theta, coarse, fine in scans:
        for got, count, balls in ((coarse, 13, 11), (fine, 25, 21)):
            want = local_uncertainty_scan(_dilates(wide_grid, count), HALF_PI, 0.0, theta, _balls(balls))
            assert got == want
            assert repr(got) == repr(want)


def test_a_warm_local_suite_takes_625_exact_sums_and_two_transforms(monkeypatch):
    # 25 signals by 21 balls of restricted energies, and a total and a
    # tail sum per signal at each of the two thetas, counted as the rows
    # summed one by one or in batches; one alpha and one beta transform of
    # the 25-signal family
    run_suite("local")
    rows, transforms = [], []
    real_sum, real_row_sums, real_transform = uncertainty._exact_sum, uncertainty._exact_row_sums, uncertainty._transform
    monkeypatch.setattr(uncertainty, "_exact_sum", lambda v: rows.append(1) or real_sum(v))
    monkeypatch.setattr(uncertainty, "_exact_row_sums", lambda v: rows.append(len(v)) or real_row_sums(v))
    monkeypatch.setattr(uncertainty, "_transform", lambda *a: transforms.append(a[1].shape) or real_transform(*a))
    run_suite("local")
    assert sum(rows) == 25 * 21 + 2 * 2 * 25
    assert transforms == [(25, 2048)] * 2


def test_the_local_table_keeps_the_tail_rule_and_the_grid_check(wide_grid):
    slow = sample(wide_grid, lambda t: (1.0 + t**2) ** -0.4)
    with pytest.raises(TailDominated):
        uncertainty._LocalTable([slow], HALF_PI, 0.0, (0.25,), _balls(3))
    # a member no report reads is still refused
    fam = _dilates(wide_grid, 3) + [slow]
    with pytest.raises(TailDominated):
        uncertainty._LocalTable(fam, HALF_PI, 0.0, (0.25, 0.4), _balls(3))
    other = _dilates(Grid((axis_centered(0.125, 2048),)), 1)
    with pytest.raises(GridMismatch):
        uncertainty._LocalTable(_dilates(wide_grid, 2) + other, HALF_PI, 0.0, (0.25, 0.4), _balls(3))


def test_the_local_table_computes_norms_only_for_a_supercritical_theta(wide_grid, monkeypatch):
    fam = _dilates(wide_grid, 5)
    norms = []
    monkeypatch.setattr(uncertainty, "l2_norm", lambda f: norms.append(f) or l2_norm(f))
    sub = uncertainty._LocalTable(fam, HALF_PI, 0.0, (0.25, 0.4), _balls(5))
    assert norms == []
    both = uncertainty._LocalTable(fam, HALF_PI, 0.0, (0.25, 1.5), _balls(5))
    assert len(norms) == len(fam)
    monkeypatch.undo()
    for theta in (0.25, 1.5):
        want = local_uncertainty_scan(fam, HALF_PI, 0.0, theta, _balls(5))
        assert both.report(theta) == want
    assert sub.report(0.4, [0, 2, 4], [1, 3]) == local_uncertainty_scan(fam[::2], HALF_PI, 0.0, 0.4, _balls(5)[1::2])
