"""Built-in verification suites over canonical fixtures.

Each suite returns a list of VerificationReports mirroring one group of
acceptance checks; `run_suite("all")` chains every group, running the
suites' jobs concurrently on every CPU and keeping their order.  Fixtures
are seeded and deterministic, so two runs produce identical records.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from typing import Callable, NamedTuple

import numpy as np

from .admissibility import admissibility_constant
from .cfrwt import (
    CfrwtCoefficients,
    _predicted_plancherel_ratio,
    cfrwt_fast,
    plancherel_check,
    range_membership_residual,
    reconstruct,
)
from .fracconv import spectral_identity_check
from .frft import _one_blas_thread, frft_direct, frft_fast, frft_inverse
from .grid import Grid, SampledSignal, axis_centered, l2_norm, sample
from .io import RunConfig
from .morrey import (
    MorreyConfig,
    default_morrey_config,
    morrey_bound_check,
    morrey_distance_checks,
    morrey_norm,
)
from .report import VerificationReport, _ratio
from .scales import log_scale_grid
from .uncertainty import (
    LocalUncertaintyReport,
    _LocalTable,
    heisenberg_cfrwt,
    heisenberg_two_domain,
    lemma_moment_identity_check,
    restricted_energy_identity_check,
)
from .wavelets import WaveletSpec, get_wavelet

__all__ = ["SUITE_ORDER", "suite_names", "run_suite"]

HALF_PI = math.pi / 2

_FIVE_ORDERS = (0.4, 0.9, HALF_PI, 2.2, 2.9)
_ADDITIVITY_GRID = Grid((axis_centered(0.0625, 1024),))

# most threads that run run_suite's jobs at once: every CPU the process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fixture(grid: Grid, seed: int) -> SampledSignal:
    """Seeded band-limited fixture: five Hermite-Gaussian modes, complex weights."""
    modes = 5
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


def _gabor(grid: Grid) -> SampledSignal:
    """Gabor atom of width 0.4 about t = 0.5 with carrier 3."""
    return sample(grid, lambda t: np.exp(-((t - 0.5) ** 2) / (2 * 0.4**2)) * np.exp(3.0j * t))


def _meta(rep: VerificationReport, grid: Grid) -> VerificationReport:
    rep.details.setdefault("grid", {"shape": list(grid.shape), "steps": [ax.step for ax in grid.axes]})
    return rep


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


def _additivity_jobs(cfg: RunConfig) -> list[Callable[[], dict]]:
    """The additivity check's ten (alpha, beta) pairs, drawn in order, as jobs."""
    rng = np.random.default_rng(1234)
    jobs = []
    for k in range(10):
        while True:
            a, b = rng.uniform(0.3, 2.8, 2)
            if min(abs(math.sin(a + b)), abs(math.sin(a)), abs(math.sin(b))) > 0.15:
                break
        jobs.append(functools.partial(_additivity_pair, 50 + k, a, b))
    return jobs


def _additivity_pair(seed: int, a: float, b: float) -> dict:
    f = _fixture(_ADDITIVITY_GRID, seed)
    cascade = frft_fast(frft_fast(f, b), a)
    direct = frft_direct(f, a + b, output_grid=cascade.grid)
    dev = l2_norm(SampledSignal(cascade.grid, cascade.values - direct.values)) / l2_norm(direct)
    return {"alpha": a, "beta": b, "deviation": dev}


def _additivity_report(pairs: list[dict]) -> list[VerificationReport]:
    worst = max(pair["deviation"] for pair in pairs)
    details = {f"pair{k}": pair for k, pair in enumerate(pairs)}
    return [_check("frft_order_additivity", worst, 1e-4, 1e-4, worst <= 1e-4, details, _ADDITIVITY_GRID)]


def _suite_convolution(cfg: RunConfig) -> list[VerificationReport]:
    # the chirped-product comparison needs finer sampling than the
    # energy checks; quadrature error at step 1/16 sits right at 1e-6
    grid = Grid((axis_centered(24 / 512, 512),))
    f = _fixture(grid, 60)
    g = _fixture(grid, 61)
    reports = []
    for alpha in _FIVE_ORDERS:
        rep = spectral_identity_check(f, g, alpha)
        rep.name = f"frac_convolution_spectral_{alpha:.4f}"
        reports.append(_meta(rep, grid))
    return reports


def _suite_plancherel(cfg: RunConfig) -> list[VerificationReport]:
    scan = cfg.frequency_scan()
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
    scales = cfg.scale_grid()
    coeffs = cfrwt_fast(f, mex, cfg.alpha, scales)
    default_range = plancherel_check(coeffs, f, scan=scan)
    default_range.details["predicted_ratio"] = _predicted_plancherel_ratio(
        coeffs, f, default_range.details["admissibility"]
    )
    reports.append(_meta(default_range, grid))

    # nested scale ranges, ending with the default range checked above
    ratios = []
    for a_min, a_max, cells in [(0.25, 4.0, 32), (0.125, 8.0, 48)]:
        sg = log_scale_grid(a_min, a_max, cells, signs="both")
        cc = cfrwt_fast(f, mex, cfg.alpha, sg)
        ratios.append(plancherel_check(cc, f, scan=scan).ratio)
    ratios.append(default_range.ratio)
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
    scan = cfg.frequency_scan()
    f = sample(grid, lambda t: np.exp(-(t**2) / (2 * 0.5**2)) * np.exp(5.0j * t))
    scales = cfg.scale_grid()
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
    scan = cfg.frequency_scan()
    scales = cfg.scale_grid()

    genuine = {}
    worst_genuine = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-0.5, 0.5)
        w0 = rng.uniform(3.5, 5.0)
        s0 = rng.uniform(0.35, 0.55)
        f = sample(grid, lambda t: np.exp(-((t - c) ** 2) / (2 * s0**2)) * np.exp(1j * w0 * t))
        coeffs = cfrwt_fast(f, mex, cfg.alpha, scales)
        res = range_membership_residual(coeffs, mex, scan=scan)
        genuine[f"trial{seed}"] = res
        worst_genuine = max(worst_genuine, res)

    # noise arrays on the genuine fields' grid, scales, order and wavelet
    noise = {}
    min_noise = math.inf
    for seed in range(100, 105):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal(coeffs.values.shape) + 1j * rng.standard_normal(coeffs.values.shape)
        fake = CfrwtCoefficients(arr, coeffs.b_grid, coeffs.scales, coeffs.order, coeffs.wavelet)
        res = range_membership_residual(fake, mex, scan=scan)
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
        _check("heisenberg_gaussian_extremal", rep.lhs, rep.rhs, 1e-4, ok, {}, grid)
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

    scan = cfg.frequency_scan()
    gabor = _gabor(grid)
    coeffs = cfrwt_fast(gabor, mex, cfg.alpha, cfg.scale_grid())
    cr = heisenberg_cfrwt(coeffs, gabor, cfg.beta, scan)
    reports.append(
        _check(
            "heisenberg_cfrwt_normalized",
            cr.lhs,
            cr.rhs,
            cr.tolerance,
            cr.passed,
            {"raw_ratio": cr.details["raw_ratio"]},
            grid,
        )
    )

    reports.append(_meta(lemma_moment_identity_check(coeffs, gabor, scan), grid))
    reports.append(_meta(restricted_energy_identity_check(coeffs, gabor, (2.5,), 1.5, scan), grid))
    return reports


def _local_scans(grid: Grid) -> list[tuple[float, LocalUncertaintyReport, LocalUncertaintyReport]]:
    """(theta, coarse scan, fine scan) at each theta of the local suite.

    The coarse scan (13 dilated Gaussians, 11 balls) is a subset of the
    fine one (25 and 21): its dilations and radii are bitwise members of
    the fine ones, found here by exact equality.  So all four scans are
    read from one table of the fine family.
    """

    def dilations(count):
        return np.exp2(np.linspace(-3, 3, count))

    def radii(count):
        return np.exp2(np.linspace(-3, 2, count))

    family = [sample(grid, lambda t, s=float(s): s**-0.5 * np.exp(-((t / s) ** 2) / 2)) for s in dilations(25)]
    balls = [((0.0,), float(r)) for r in radii(21)]
    coarse_signals = np.flatnonzero(np.isin(dilations(25), dilations(13))).tolist()
    coarse_balls = np.flatnonzero(np.isin(radii(21), radii(11))).tolist()
    assert (len(coarse_signals), len(coarse_balls)) == (13, 11)
    thetas = (0.25, 0.4)
    table = _LocalTable(family, HALF_PI, 0.0, thetas, balls)
    return [(theta, table.report(theta, coarse_signals, coarse_balls), table.report(theta)) for theta in thetas]


def _suite_local(cfg: RunConfig) -> list[VerificationReport]:
    grid = Grid((axis_centered(0.0625, 2048),))
    reports = []
    for theta, coarse, fine in _local_scans(grid):
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


def _perturbed_profile(t: np.ndarray) -> np.ndarray:
    """mexican_hat plus 0.05 dog3; one function, so each pass's wavelet is one memo key."""
    return get_wavelet("mexican_hat").profile(t) + 0.05 * get_wavelet("dog3").profile(t)


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
    pert = WaveletSpec("mexhat_perturbed", _perturbed_profile, max(mex.support_radius, dog3.support_radius))
    reports.append(
        _meta(
            morrey_distance_checks(bump, other, mex, pert, (2.0,), cfg.alpha, scan_cfg),
            grid,
        )
    )
    return reports


class _Split(NamedTuple):
    """A suite as independent jobs(cfg), whose results report() turns into its reports."""

    jobs: Callable[[RunConfig], list[Callable[[], object]]]
    report: Callable[[list], list[VerificationReport]]


_SUITES = {
    "parseval": _suite_parseval,
    "additivity": _Split(_additivity_jobs, _additivity_report),
    "convolution": _suite_convolution,
    "plancherel": _suite_plancherel,
    "reconstruction": _suite_reconstruction,
    "kernel": _suite_kernel,
    "heisenberg": _suite_heisenberg,
    "local": _suite_local,
    "morrey": _suite_morrey,
}
# the suite names in `verify all` order
SUITE_ORDER = tuple(_SUITES)


def suite_names() -> tuple[str, ...]:
    return SUITE_ORDER + ("all",)


def _run_jobs(jobs: list[Callable[[], object]]) -> list:
    """Call the independent jobs on the calling thread and up to _WORKERS - 1
    helper threads, which take them in order from one shared counter, and
    return their results in job order.  OpenBLAS is held to one thread
    meanwhile, so a job's products start no threads on CPUs the jobs use
    and their bits do not depend on the CPU count.  Once a job has raised,
    no further job is handed out, and the exception of the lowest failing
    job is re-raised once every helper has stopped: the one a serial loop
    would have raised.
    """
    lock = threading.Lock()
    indices = iter(range(len(jobs)))
    results, failures = [None] * len(jobs), {}

    def drain() -> None:
        while True:
            with lock:
                k = None if failures else next(indices, None)
            if k is None:
                return
            try:
                results[k] = jobs[k]()
            except BaseException as exc:  # re-raised in the caller below
                failures[k] = exc
                return

    threads = []
    with _one_blas_thread():
        try:
            for _ in range(min(_WORKERS, len(jobs)) - 1):
                thread = threading.Thread(target=drain)
                thread.start()
                threads.append(thread)
            drain()
        except BaseException as exc:  # a helper that did not start, or an interrupt
            failures[-1] = exc
        for thread in threads:
            # an interrupt stops the hand-out of jobs, and the join goes on
            while True:
                try:
                    thread.join()
                    break
                except BaseException as exc:
                    failures[-1] = exc
    if failures:
        raise failures[min(failures)]
    return results


def _suite_jobs(suite, cfg: RunConfig) -> tuple[list, Callable[[list], list[VerificationReport]]]:
    """suite's jobs and the step that builds its reports: a plain suite is one job."""
    if isinstance(suite, _Split):
        return suite.jobs(cfg), suite.report
    return [functools.partial(suite, cfg)], lambda results: results[0]


def run_suite(name: str, cfg: RunConfig | None = None) -> list[VerificationReport]:
    """Run one named suite (or "all") and return its reports.  The suites
    share no state, so the jobs of every suite asked for run together, in
    suite order, and each suite's reports are built from its jobs' results:
    the reports of the suites run one after another."""
    cfg = cfg if cfg is not None else RunConfig()
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(suite_names())}")
    plans = [_suite_jobs(_SUITES[suite], cfg) for suite in (SUITE_ORDER if name == "all" else (name,))]
    results = iter(_run_jobs([job for jobs, _ in plans for job in jobs]))
    return [rep for jobs, report in plans for rep in report([next(results) for _ in jobs])]
