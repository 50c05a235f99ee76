"""Built-in verification suites over canonical fixtures.

Each suite returns a list of VerificationReports mirroring one group of
acceptance checks; `run_suite("all")` chains every group.  Fixtures are
seeded and deterministic, so two runs produce identical records.
"""

from __future__ import annotations

import math

import numpy as np

from .admissibility import FrequencyScan, admissibility_constant
from .cfrwt import (
    CfrwtCoefficients,
    cfrwt_fast,
    plancherel_check,
    range_membership_residual,
    reconstruct,
)
from .fracconv import spectral_identity_check
from .frft import frft_direct, frft_fast, frft_inverse
from .grid import Grid, SampledSignal, axis_centered, l2_norm, sample
from .io import RunConfig
from .morrey import (
    MorreyConfig,
    default_morrey_config,
    morrey_bound_check,
    morrey_distance_checks,
    morrey_norm,
)
from .report import VerificationReport
from .scales import log_scale_grid
from .uncertainty import (
    heisenberg_cfrwt,
    heisenberg_two_domain,
    lemma_moment_identity_check,
    local_uncertainty_scan,
    restricted_energy_identity_check,
)
from .wavelets import WaveletSpec, get_wavelet

__all__ = ["SUITE_ORDER", "suite_names", "run_suite"]

HALF_PI = math.pi / 2

_FIVE_ORDERS = (0.4, 0.9, HALF_PI, 2.2, 2.9)


def _fixture(grid: Grid, seed: int, modes: int = 5) -> SampledSignal:
    """Seeded band-limited fixture: Hermite-Gaussian modes, complex weights."""
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=modes) + 1j * rng.normal(size=modes)

    def fn(*axes):
        r2 = sum(a**2 for a in axes)
        env = np.exp(-r2 / 2)
        out = np.zeros_like(env, dtype=complex)
        for k, c in enumerate(coeffs):
            herm = np.ones_like(env)
            for a in axes:
                herm = herm * np.polynomial.hermite_e.hermeval(a, [0.0] * k + [1.0])
            out = out + c * herm * env / (2.0**k)
        return out

    return sample(grid, fn)


def _grid_256() -> Grid:
    return Grid((axis_centered(0.0625, 256),))


def _gabor(grid: Grid, shift: float = 0.5, width: float = 0.4, carrier: float = 3.0) -> SampledSignal:
    return sample(
        grid, lambda t: np.exp(-((t - shift) ** 2) / (2 * width**2)) * np.exp(1j * carrier * t)
    )


def _meta(rep: VerificationReport, grid: Grid) -> VerificationReport:
    rep.details.setdefault("grid", {"shape": list(grid.shape), "steps": [ax.step for ax in grid.axes]})
    return rep


def _ratio(lhs: float, rhs: float) -> float:
    if rhs != 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else math.inf


def _check(name: str, lhs: float, rhs: float, tolerance: float, passed: bool, details: dict, grid: Grid) -> VerificationReport:
    return _meta(VerificationReport(name, lhs, rhs, _ratio(lhs, rhs), tolerance, passed, details), grid)


# ------------------------------------------------------------------
# suites


def _suite_parseval(cfg: RunConfig) -> list[VerificationReport]:
    reports = []
    for label, grid in [
        ("1d", Grid((axis_centered(0.25, 64),))),
        ("2d", Grid((axis_centered(0.5, 32), axis_centered(0.5, 32)))),
    ]:
        per_order = {}
        worst = 0.0
        for k, alpha in enumerate(_FIVE_ORDERS):
            f = _fixture(grid, 10 + k)
            fast = frft_fast(f, alpha)
            direct = frft_direct(f, alpha)
            dev = float(np.max(np.abs(fast.values - direct.values)))
            per_order[f"alpha_{alpha:.4f}"] = dev
            worst = max(worst, dev)
        reports.append(
            _check(f"frft_fast_vs_direct_{label}", worst, 1e-8, 1e-8, worst <= 1e-8, per_order, grid)
        )

    grid = _grid_256()
    worst = 0.0
    per_case = {}
    for seed in range(4):
        f = _fixture(grid, 20 + seed)
        norm = l2_norm(f)
        for alpha in (0.9, 1.8, 2.6):
            dev = abs(l2_norm(frft_fast(f, alpha)) - norm) / norm
            per_case[f"seed{seed}_alpha{alpha}"] = dev
            worst = max(worst, dev)
    reports.append(_check("frft_unitarity", worst, 1e-6, 1e-6, worst <= 1e-6, per_case, grid))

    f = _fixture(grid, 31)
    back = frft_inverse(frft_fast(f, 1.1), 1.1)
    err = l2_norm(SampledSignal(grid, back.values - f.values)) / l2_norm(f)
    reports.append(_check("frft_inversion_round_trip", err, 1e-6, 1e-6, err <= 1e-6, {}, grid))
    return reports


def _suite_additivity(cfg: RunConfig) -> list[VerificationReport]:
    grid = Grid((axis_centered(0.0625, 1024),))
    rng = np.random.default_rng(1234)
    worst = 0.0
    pairs = {}
    for k in range(10):
        f = _fixture(grid, 50 + k)
        while True:
            a, b = rng.uniform(0.3, 2.8, 2)
            if min(abs(math.sin(a + b)), abs(math.sin(a)), abs(math.sin(b))) > 0.15:
                break
        cascade = frft_fast(frft_fast(f, b), a)
        direct = frft_direct(f, a + b, output_grid=cascade.grid)
        dev = l2_norm(SampledSignal(cascade.grid, cascade.values - direct.values)) / l2_norm(direct)
        pairs[f"pair{k}"] = {"alpha": a, "beta": b, "deviation": dev}
        worst = max(worst, dev)
    return [_check("frft_order_additivity", worst, 1e-4, 1e-4, worst <= 1e-4, pairs, grid)]


def _suite_convolution(cfg: RunConfig) -> list[VerificationReport]:
    # the chirped-product comparison needs finer sampling than the
    # energy checks; quadrature error at step 1/16 sits right at 1e-6
    grid = Grid((axis_centered(24 / 512, 512),))
    f = _fixture(grid, 60)
    g = _fixture(grid, 61)
    reports = []
    for alpha in _FIVE_ORDERS:
        rep = spectral_identity_check(f, g, alpha, tolerance=1e-6)
        rep.name = f"frac_convolution_spectral_{alpha:.4f}"
        reports.append(_meta(rep, grid))
    return reports


def _suite_plancherel(cfg: RunConfig) -> list[VerificationReport]:
    scan = FrequencyScan(u_min=cfg.u_min, u_max=cfg.u_max)
    mex = get_wavelet("mexican_hat")
    reports = []

    adm = admissibility_constant(mex, HALF_PI, scan=scan)
    val = adm.value.real
    reports.append(
        VerificationReport(
            "mexican_hat_admissibility",
            val,
            1.0,
            val,
            0.02,
            abs(val - 1.0) <= 0.02,
            {"verdict": adm.verdict},
        )
    )

    gauss_rep = admissibility_constant(get_wavelet("gaussian"), HALF_PI, scan=scan)
    diverged = gauss_rep.verdict == "divergent"
    reports.append(
        VerificationReport(
            "gaussian_divergence_flag",
            1.0 if diverged else 0.0,
            1.0,
            1.0 if diverged else 0.0,
            0.0,
            diverged,
            {"verdict": gauss_rep.verdict, "halvings": len(gauss_rep.trace) - 1},
        )
    )

    grid = _grid_256()
    f = _gabor(grid)
    scales = log_scale_grid(cfg.a_min, cfg.a_max, cfg.a_count, signs="both")
    coeffs = cfrwt_fast(f, mex, cfg.alpha, scales)
    reports.append(_meta(plancherel_check(coeffs, f, mex, scan=scan), grid))

    ratios = []
    for a_min, a_max, cells in [(0.25, 4.0, 32), (0.125, 8.0, 48), (cfg.a_min, cfg.a_max, cfg.a_count)]:
        sg = log_scale_grid(a_min, a_max, cells, signs="both")
        cc = cfrwt_fast(f, mex, cfg.alpha, sg)
        ratios.append(plancherel_check(cc, f, mex, scan=scan).ratio)
    monotone = ratios[0] < ratios[1] < ratios[2] <= 1.05 and ratios[2] >= 0.95
    reports.append(
        _check(
            "plancherel_nested_ranges",
            ratios[2],
            1.0,
            0.05,
            monotone,
            {"ratios": ratios},
            grid,
        )
    )
    return reports


def _suite_reconstruction(cfg: RunConfig) -> list[VerificationReport]:
    grid = _grid_256()
    mex = get_wavelet("mexican_hat")
    dog4 = get_wavelet("dog4")
    scan = FrequencyScan(u_min=cfg.u_min, u_max=cfg.u_max)
    f = sample(grid, lambda t: np.exp(-(t**2) / (2 * 0.5**2)) * np.exp(5.0j * t))
    scales = log_scale_grid(cfg.a_min, cfg.a_max, cfg.a_count, signs="both")
    coeffs = cfrwt_fast(f, mex, cfg.alpha, scales)
    reports = []
    for label, synth, bound in [("single_wavelet", mex, 0.05), ("two_wavelet", dog4, 0.08)]:
        recon = reconstruct(coeffs, synth, mex, scan=scan)
        err = l2_norm(SampledSignal(grid, recon.values - f.values)) / l2_norm(f)
        reports.append(
            _check(f"reconstruction_{label}", err, bound, bound, err <= bound, {"synthesis": synth.name}, grid)
        )
    return reports


def _suite_kernel(cfg: RunConfig) -> list[VerificationReport]:
    grid = _grid_256()
    mex = get_wavelet("mexican_hat")
    scan = FrequencyScan(u_min=cfg.u_min, u_max=cfg.u_max)
    scales = log_scale_grid(cfg.a_min, cfg.a_max, cfg.a_count, signs="both")

    genuine = {}
    worst_genuine = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-0.5, 0.5)
        w0 = rng.uniform(3.5, 5.0)
        s0 = rng.uniform(0.35, 0.55)
        f = sample(grid, lambda t: np.exp(-((t - c) ** 2) / (2 * s0**2)) * np.exp(1j * w0 * t))
        coeffs = cfrwt_fast(f, mex, cfg.alpha, scales)
        res = range_membership_residual(coeffs, mex, mex, scan=scan)
        genuine[f"trial{seed}"] = res
        worst_genuine = max(worst_genuine, res)

    template = cfrwt_fast(
        sample(grid, lambda t: np.exp(-(t**2) / (2 * 0.45**2)) * np.exp(4.0j * t)),
        mex,
        cfg.alpha,
        scales,
    )
    noise = {}
    min_noise = math.inf
    for seed in range(100, 105):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal(template.values.shape) + 1j * rng.standard_normal(template.values.shape)
        fake = CfrwtCoefficients(arr, template.b_grid, template.scales, template.order, template.wavelet)
        res = range_membership_residual(fake, mex, mex, scan=scan)
        noise[f"trial{seed}"] = res
        min_noise = min(min_noise, res)

    return [
        _check("kernel_genuine_membership", worst_genuine, 0.05, 0.05, worst_genuine <= 0.05, genuine, grid),
        _check("kernel_noise_rejection", min_noise, 0.20, 0.20, min_noise >= 0.20, noise, grid),
    ]


def _suite_heisenberg(cfg: RunConfig) -> list[VerificationReport]:
    grid = _grid_256()
    mex = get_wavelet("mexican_hat")
    reports = []

    gauss = sample(grid, lambda t: np.exp(-(t**2) / 2))
    rep = heisenberg_two_domain(gauss, HALF_PI, 0.0)
    quarter_pi = math.pi / 4
    ok = abs(rep.ratio - 1.0) <= 1e-4 and abs(rep.lhs - quarter_pi) <= 1e-8
    reports.append(
        _check("heisenberg_gaussian_extremal", rep.lhs, rep.rhs, 1e-4, ok, {"ratio": rep.ratio}, grid)
    )

    rng = np.random.default_rng(42)
    worst = math.inf
    cases = {}
    for seed in range(20):
        f = _fixture(grid, seed)
        while True:
            a, b = rng.uniform(0.3, 2.8, 2)
            if abs(math.sin(a - b)) > 0.2:
                break
        r = heisenberg_two_domain(f, a, b)
        cases[f"fixture{seed}"] = r.ratio
        worst = min(worst, r.ratio)
    reports.append(
        _check("heisenberg_two_domain_suite", worst, 1.0, 1e-3, worst >= 1.0 - 1e-3, cases, grid)
    )

    scales = log_scale_grid(cfg.a_min, cfg.a_max, cfg.a_count, signs="both")
    gabor = _gabor(grid)
    cr = heisenberg_cfrwt(gabor, mex, cfg.alpha, cfg.beta, scales)
    reports.append(
        _check(
            "heisenberg_cfrwt_normalized",
            cr.lhs,
            cr.rhs,
            0.05,
            cr.passed,
            {"ratio": cr.ratio, "raw_ratio": cr.details["raw_ratio"]},
            grid,
        )
    )

    reports.append(_meta(lemma_moment_identity_check(gabor, mex, cfg.alpha, scales), grid))
    reports.append(
        _meta(
            restricted_energy_identity_check(
                gabor, mex, cfg.alpha, scales, (2.5,), 1.5
            ),
            grid,
        )
    )
    return reports


def _suite_local(cfg: RunConfig) -> list[VerificationReport]:
    grid = Grid((axis_centered(0.0625, 2048),))

    def dilate(s):
        return sample(grid, lambda t: s**-0.5 * np.exp(-((t / s) ** 2) / 2))

    def family(count):
        return [dilate(float(s)) for s in np.exp2(np.linspace(-3, 3, count))]

    def balls(count):
        return [((0.0,), float(r)) for r in np.exp2(np.linspace(-3, 2, count))]

    reports = []
    for theta in (0.25, 0.4):
        coarse = local_uncertainty_scan(family(13), HALF_PI, 0.0, theta, balls(11))
        fine = local_uncertainty_scan(family(25), HALF_PI, 0.0, theta, balls(21))
        cap = 2.0 * theta + 0.1
        stable = coarse.a_hat <= fine.a_hat <= 1.1 * coarse.a_hat
        ok = coarse.envelope_slope <= cap and stable
        reports.append(
            _check(
                f"local_uncertainty_theta_{theta}",
                coarse.envelope_slope,
                cap,
                0.1,
                ok,
                {"a_hat": coarse.a_hat, "a_hat_refined": fine.a_hat},
                grid,
            )
        )
    return reports


def _suite_morrey(cfg: RunConfig) -> list[VerificationReport]:
    grid = _grid_256()
    mex = get_wavelet("mexican_hat")
    reports = []

    ind = sample(grid, lambda t: np.where(np.abs(t) < 1.0, 1.0, 0.0) + 0.5 * (np.abs(t) == 1.0))
    octave = MorreyConfig(0.5, tuple((float(c),) for c in range(-8, 8)), (0.125, 0.25, 0.5, 1.0, 2.0, 4.0))
    est = morrey_norm(ind, octave)
    reports.append(
        _check(
            "morrey_indicator_norm",
            est.value,
            2.0,
            1e-6,
            abs(est.value - 2.0) <= 1e-6,
            {"center": est.center, "radius": est.radius},
            grid,
        )
    )

    scan_cfg = default_morrey_config(grid, cfg.nu)
    gauss = sample(grid, lambda t: np.exp(-(t**2) / 2))
    reports.append(_meta(morrey_bound_check(gauss, mex, (1.0,), cfg.alpha, scan_cfg), grid))

    wide = Grid((axis_centered(0.0625, 2048),))
    wide_cfg = default_morrey_config(wide, 0.5)
    fw = sample(wide, lambda t: np.exp(-(t**2) / (2 * 24.0**2)))
    growth = morrey_bound_check(fw, get_wavelet("gaussian"), (1.0,), HALF_PI, wide_cfg)
    exponent = growth.details["growth_exponent"]
    reports.append(
        _check(
            "morrey_growth_exponent",
            exponent,
            0.5,
            0.1,
            growth.passed and 0.4 <= exponent <= 0.6,
            {"growth_values": growth.details["growth_values"]},
            wide,
        )
    )

    bump = sample(grid, lambda t: np.exp(-((t - 0.4) ** 2) / 2))
    other = SampledSignal(grid, bump.values + 0.05 * np.exp(-(grid.meshgrid()[0] ** 2)))
    dog3 = get_wavelet("dog3")
    pert = WaveletSpec(
        name="mexhat_perturbed",
        profile=lambda t: mex.profile(t) + 0.05 * dog3.profile(t),
        support_radius=max(mex.support_radius, dog3.support_radius),
    )
    reports.append(
        _meta(
            morrey_distance_checks(bump, other, mex, pert, (2.0,), cfg.alpha, scan_cfg),
            grid,
        )
    )
    return reports


SUITE_ORDER = (
    "parseval",
    "additivity",
    "convolution",
    "plancherel",
    "reconstruction",
    "kernel",
    "heisenberg",
    "local",
    "morrey",
)

_SUITES = {
    "parseval": _suite_parseval,
    "additivity": _suite_additivity,
    "convolution": _suite_convolution,
    "plancherel": _suite_plancherel,
    "reconstruction": _suite_reconstruction,
    "kernel": _suite_kernel,
    "heisenberg": _suite_heisenberg,
    "local": _suite_local,
    "morrey": _suite_morrey,
}


def suite_names() -> tuple[str, ...]:
    return SUITE_ORDER + ("all",)


def run_suite(name: str, cfg: RunConfig | None = None) -> list[VerificationReport]:
    """Run one named suite (or "all") and return its reports."""
    cfg = cfg if cfg is not None else RunConfig()
    if name == "all":
        out = []
        for key in SUITE_ORDER:
            out.extend(_SUITES[key](cfg))
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(suite_names())}")
    return _SUITES[name](cfg)
