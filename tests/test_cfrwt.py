from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from frwt.admissibility import admissibility_constant, cross_admissibility, fractional_spectrum
from frwt.cfrwt import (
    CfrwtCoefficients,
    _predicted_plancherel_ratio,
    cfrwt_direct,
    cfrwt_fast,
    inner_product_relation_check,
    plancherel_check,
    range_membership_residual,
    reconstruct,
    reproducing_kernel,
    truncated_coverage,
)
from frwt import cache_info, memo
from frwt import cfrwt as cfrwt_module
from frwt import frft as frft_module
from frwt.errors import GridMismatch, InadmissibleWavelet, ZeroCrossAdmissibility
from frwt.frft import _as_order, c_alpha
from frwt.grid import AxisSpec, Grid, SampledSignal, axis_centered, axis_linspace, l2_norm, sample
from frwt.io import read_coefficients, write_coefficients
from frwt.scales import ScaleGrid, log_scale_grid
from frwt.uncertainty import heisenberg_cfrwt, lemma_moment_identity_check, restricted_energy_identity_check
from frwt.wavelets import CATALOG, WaveletSpec, get_wavelet, make_daughter, wavelet_l2_norm

from oracles import (
    brute_classical_cwt,
    brute_reconstruct,
    fine_grid_fractional_spectrum,
    per_scale_reconstruct,
    per_vector_cfrwt,
    per_vector_reconstruct,
    signed_tap_spectrum,
)
from named_inputs import PERTURBED, gabor_signal, named_grid, named_scales, twin_inputs, twin_signal

MEX = get_wavelet("mexican_hat")
DOG3 = get_wavelet("dog3")
DOG4 = get_wavelet("dog4")
MOR = get_wavelet("morlet")
GAUSS = get_wavelet("gaussian")

ALPHA = 0.9
HALF_PI = math.pi / 2
FIVE_ORDERS = (0.4, 0.9, HALF_PI, 2.2, 2.9)
# any nonzero constant: the synthesis tests compare routes, not normalizers
CROSS = 1.3 - 0.4j

# Frozen from the calibration runs recorded in the repository history: the
# reproducing kernel diagonal for the standard fixture below.
KERNEL_DIAG = 0.2115710938304097


@pytest.fixture(scope="module")
def grid():
    return Grid((axis_centered(0.0625, 256),))


@pytest.fixture(scope="module")
def scales_wide():
    # +-[2^-4, 2^4], 64 log cells per sign, step log(2)/8.
    return log_scale_grid(2.0**-4, 2.0**4, 64, ndim=1, signs="both")


@pytest.fixture(scope="module")
def gabor(grid):
    return gabor_signal(grid)


@pytest.fixture(scope="module")
def gabor_coeffs(gabor, scales_wide):
    return cfrwt_fast(gabor, MEX, ALPHA, scales_wide)


def relative_peak_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


# ---------------------------------------------------------------- transforms


@pytest.mark.parametrize("alpha", [0.9, HALF_PI, 2.2])
def test_fast_matches_direct_1d(alpha):
    g = Grid((axis_centered(0.125, 128),))
    f = sample(g, lambda t: np.exp(-(t**2) / 2) * np.exp(1j * t) + 0.3 * np.exp(-((t - 1) ** 2)))
    sc = log_scale_grid(0.5, 4.0, 16, ndim=1, signs="both")
    fast = cfrwt_fast(f, MEX, alpha, sc)
    direct = cfrwt_direct(f, MEX, alpha, sc)
    # Both routes share quadrature and chirp folding, so agreement is at
    # rounding level, far below the 1e-6 contract.
    assert relative_peak_error(fast.values, direct.values) < 1e-12


def test_fast_matches_direct_2d():
    ax = axis_centered(0.25, 64)
    g = Grid((ax, ax))
    f = sample(g, lambda x, y: np.exp(-(x**2 + y**2) / 2) * np.exp(1j * (2 * x - y)))
    sc = log_scale_grid(0.5, 4.0, 6, ndim=2, signs="both")
    fast = cfrwt_fast(f, MEX, 1.1, sc)
    direct = cfrwt_direct(f, MEX, 1.1, sc)
    assert relative_peak_error(fast.values, direct.values) < 1e-12


def test_separable_signal_factorizes():
    """A product signal on a product scale grid gives the outer product of
    the one-dimensional coefficient arrays, exactly."""
    ax = axis_centered(0.25, 64)
    g1 = Grid((ax,))
    u = sample(g1, lambda t: np.exp(-((t - 0.3) ** 2) / (2 * 0.5**2)) * np.exp(2j * t))
    sc1 = log_scale_grid(0.5, 4.0, 6, ndim=1, signs="both")
    w1 = cfrwt_fast(u, MEX, 1.1, sc1)

    g2 = Grid((ax, ax))
    f2 = SampledSignal(g2, np.outer(u.values, u.values))
    sc2 = log_scale_grid(0.5, 4.0, 6, ndim=2, signs="both")
    w2 = cfrwt_fast(f2, MEX, 1.1, sc2)

    count = sc1.count
    peak = np.abs(w2.values).max()
    for i in range(count):
        for j in range(count):
            pred = np.outer(w1.values[i], w1.values[j])
            assert np.abs(w2.values[i * count + j] - pred).max() < 1e-12 * peak


def test_half_pi_reduces_to_classical_cwt(grid):
    f = sample(grid, lambda t: np.exp(-(t**2) / (2 * 0.6**2)) * np.cos(2 * t))
    sc = log_scale_grid(2.0 * 2**-0.5, 2.0 * 2**0.5, 1, ndim=1, signs="positive")
    assert sc.vectors[0, 0] == 2.0  # midpoint of a single symmetric log cell
    w = cfrwt_fast(f, MEX, HALF_PI, sc)
    b = grid.axis_points()[0][::16]
    oracle = brute_classical_cwt(f, MEX.profile, 2.0, b)
    assert np.abs(w.values[0, ::16] - oracle).max() < 1e-10


def test_linearity(grid, scales_wide):
    f = sample(grid, lambda t: np.exp(-(t**2)))
    g = sample(grid, lambda t: t * np.exp(-(t**2) / 2) * np.exp(1j * t))
    both = SampledSignal(grid, 2.0 * f.values - 1.5j * g.values)
    wf = cfrwt_fast(f, MEX, ALPHA, scales_wide)
    wg = cfrwt_fast(g, MEX, ALPHA, scales_wide)
    wb = cfrwt_fast(both, MEX, ALPHA, scales_wide)
    combo = 2.0 * wf.values - 1.5j * wg.values
    assert np.abs(wb.values - combo).max() < 1e-12 * np.abs(combo).max()


def test_zero_signal_gives_zero_coefficients(grid, scales_wide):
    z = SampledSignal(grid, np.zeros(256, dtype=complex))
    w = cfrwt_fast(z, MEX, ALPHA, scales_wide)
    assert np.all(w.values == 0)


def test_self_daughter_coefficient_is_squared_norm():
    # The coefficient of a daughter at its own (b, a) is the plain L2 norm
    # squared of the mother: phases cancel between daughter and kernel.
    g = Grid((axis_centered(0.0625, 2048),))
    order = _as_order(ALPHA)
    d = make_daughter(MEX, (2.0,), (1.5,), order, g)
    sc = log_scale_grid(2.0 * 2**-0.5, 2.0 * 2**0.5, 1, ndim=1, signs="positive")
    w = cfrwt_direct(SampledSignal(g, d.values), MEX, ALPHA, sc)
    k = int(round((1.5 - g.axes[0].start) / g.axes[0].step))
    assert w.values[0, k] == pytest.approx(wavelet_l2_norm(MEX) ** 2, abs=1e-6)


@pytest.mark.parametrize("centred", [True, False], ids=["centred", "offset"])
@pytest.mark.parametrize("n", [100, 101, 243, 1000])
def test_fast_matches_direct_any_length(n, centred):
    step = 12.0 / n
    g = Grid((axis_centered(step, n) if centred else AxisSpec(-0.3 * n * step, step, n),))
    f = sample(g, lambda t: np.exp(-((t - 0.5) ** 2) / 2) * np.exp(2j * t))
    sc = log_scale_grid(0.5, 4.0, 4, ndim=1, signs="both")
    for alpha in FIVE_ORDERS:
        fast = cfrwt_fast(f, MEX, alpha, sc)
        direct = cfrwt_direct(f, MEX, alpha, sc)
        assert relative_peak_error(fast.values, direct.values) < 1e-12


def test_fast_matches_direct_2d_odd_shape():
    g = Grid((axis_centered(0.4, 30), AxisSpec(-4.0, 0.35, 27)))
    f = sample(g, lambda x, y: np.exp(-(x**2 + (y + 1) ** 2) / 2) * np.exp(1j * (x - 2 * y)))
    sc = log_scale_grid(0.5, 4.0, 3, ndim=2, signs="both")
    fast = cfrwt_fast(f, MOR, 1.1, sc)
    direct = cfrwt_direct(f, MOR, 1.1, sc)
    assert relative_peak_error(fast.values, direct.values) < 1e-12


def test_results_do_not_depend_on_chunk_size(gabor, gabor_coeffs, scales_wide, monkeypatch):
    recon = reconstruct(gabor_coeffs, DOG4, MEX, cross_value=CROSS)
    # three scale vectors per chunk, the last chunk short
    monkeypatch.setattr(frft_module, "_CHUNK_BYTES", 3 * 16 * 512)
    assert len(cfrwt_module._chunk_plan(gabor.grid, scales_wide.count)[0]) == 43
    chunked = cfrwt_fast(gabor, MEX, ALPHA, scales_wide)
    assert np.array_equal(chunked.values, gabor_coeffs.values)
    assert np.array_equal(reconstruct(chunked, DOG4, MEX, cross_value=CROSS).values, recon.values)


def _synthesis_case(axes, a_count, psi=MOR):
    g = Grid(axes)
    f = sample(g, lambda *t: np.exp(-sum((x - 0.3) ** 2 for x in t)) * np.exp(2j * t[0]))
    sc = log_scale_grid(2.0**-2, 2.0**2, a_count, ndim=g.ndim, signs="both")
    return cfrwt_fast(f, psi, ALPHA, sc)


@pytest.mark.parametrize(
    "axes,a_count,rows",
    [
        ((AxisSpec(-4.0, 0.1, 101),), 16, 3),
        ((axis_centered(0.4, 30), AxisSpec(-4.0, 0.35, 27)), 4, 5),
    ],
    ids=["1d-101", "2d-30x27"],
)
def test_synthesis_does_not_depend_on_chunk_size(axes, a_count, rows, monkeypatch):
    w = _synthesis_case(axes, a_count)
    recon = reconstruct(w, MOR, MOR, cross_value=CROSS)
    chunks, work, _ = cfrwt_module._chunk_plan(w.b_grid, w.scales.count)
    # elements of one scale vector's largest padded intermediate
    padded = work[0].size // chunks[0].stop
    monkeypatch.setattr(frft_module, "_CHUNK_BYTES", rows * 16 * padded)
    chunks = cfrwt_module._chunk_plan(w.b_grid, w.scales.count)[0]
    # chunks of `rows` scale vectors, the last one short
    assert chunks[0].stop == rows and 0 < chunks[-1].stop - chunks[-1].start < rows
    assert np.array_equal(reconstruct(w, MOR, MOR, cross_value=CROSS).values, recon.values)


def test_synthesis_inverts_one_padded_row(gabor_coeffs, monkeypatch):
    """The scale sum is taken in the frequency domain: a 1-D synthesis over
    128 scale vectors inverts one padded row, not one per scale vector."""
    inverted = []
    ifft = np.fft.ifft

    def recording_ifft(a, *args, axis=-1, **kwargs):
        inverted.append(a.size // a.shape[axis])
        return ifft(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recording_ifft)
    assert gabor_coeffs.scales.count == 128
    reconstruct(gabor_coeffs, DOG4, MEX, cross_value=CROSS)
    assert inverted == [1]


# ------------------------------------------------------------ energy checks


def test_plancherel_ratio_in_band(gabor_coeffs, gabor):
    rep = plancherel_check(gabor_coeffs, gabor)
    assert rep.passed
    assert 0.95 <= rep.ratio <= 1.05
    # The truncated-coverage oracle explains the shortfall from 1.
    predicted = _predicted_plancherel_ratio(gabor_coeffs, gabor, rep.details["admissibility"])
    assert rep.ratio == pytest.approx(predicted, abs=0.02)


def test_plancherel_nearly_order_invariant(gabor, scales_wide):
    # The covered spectral band rescales with sin(alpha), so at truncated
    # coverage the ratio moves a little; the per-order prediction tracks it.
    ratios = {}
    for alpha in (ALPHA, HALF_PI):
        w = cfrwt_fast(gabor, MEX, alpha, scales_wide)
        rep = plancherel_check(w, gabor)
        predicted = _predicted_plancherel_ratio(w, gabor, rep.details["admissibility"])
        assert rep.ratio == pytest.approx(predicted, abs=0.02)
        ratios[alpha] = rep.ratio
    assert abs(ratios[ALPHA] - ratios[HALF_PI]) < 0.01


def test_plancherel_scale_invariance_is_exact(gabor, gabor_coeffs, scales_wide):
    doubled = SampledSignal(gabor.grid, 2.0 * gabor.values)
    wd = cfrwt_fast(doubled, MEX, ALPHA, scales_wide)
    r1 = plancherel_check(gabor_coeffs, gabor).ratio
    r2 = plancherel_check(wd, doubled).ratio
    assert r1 == r2  # quartic over quadratic homogeneity, exact in floats


def test_plancherel_monotone_in_nested_ranges(gabor):
    """Growing the scale range at fixed log density only adds nonnegative
    energy terms, and the octave-aligned grids nest bit for bit."""
    ratios = []
    for lo, hi, cells in ((0.25, 4.0, 32), (0.125, 8.0, 48), (0.0625, 16.0, 64)):
        sc = log_scale_grid(lo, hi, cells, ndim=1, signs="both")
        w = cfrwt_fast(gabor, MEX, ALPHA, sc)
        ratios.append(plancherel_check(w, gabor).ratio)
    assert ratios[0] < ratios[1] < ratios[2]
    assert 0.95 <= ratios[2] <= 1.05


def test_unrepresentable_energy_fails_the_check_without_a_traceback():
    """Finite samples of 1e153 give finite coefficients whose energy is not
    representable: energy() is inf, the top-octave share nan, and the
    Plancherel check reports a failure instead of raising OverflowError."""
    f = SampledSignal(Grid((AxisSpec(-32.0, 1.0, 64),)), np.full(64, 1e153 + 0j))
    coeffs = cfrwt_fast(f, MEX, ALPHA, log_scale_grid(2.0**-4, 2.0**4, 64, signs="both"))
    assert np.all(np.isfinite(coeffs.values))
    assert coeffs.energy() == math.inf
    assert math.isnan(coeffs.last_octave_fraction())
    rep = plancherel_check(coeffs, f)
    assert not rep.passed
    assert rep.ratio == math.inf
    assert rep.details["coefficient_energy"] == math.inf


def test_plancherel_rejects_grid_mismatch(gabor_coeffs):
    other = Grid((axis_centered(0.125, 128),))
    f = sample(other, lambda t: np.exp(-(t**2)))
    with pytest.raises(GridMismatch):
        plancherel_check(gabor_coeffs, f)


def test_plancherel_rejects_inadmissible_wavelet(grid, scales_wide):
    f = sample(grid, lambda t: np.exp(-(t**2)))
    w = cfrwt_fast(f, GAUSS, ALPHA, scales_wide)
    with pytest.raises(InadmissibleWavelet):
        plancherel_check(w, f)


def test_coverage_vanishes_at_origin_and_stays_below_one(scales_wide):
    order = _as_order(ALPHA)
    kappa = truncated_coverage(MEX, order, scales_wide, Grid((axis_centered(0.1, 401),)))
    c_full = admissibility_constant(MEX, order).value.real
    assert kappa[200] < 1e-20  # xi = 0 exactly
    assert kappa.max() / c_full < 1.02


@pytest.mark.parametrize("alpha", FIVE_ORDERS)
@pytest.mark.parametrize("psi", [MEX, MOR], ids=["real", "complex"])
def test_chirp_z_coverage_matches_direct_spectrum(psi, alpha):
    """Chirp-z route against |fractional_spectrum|^2 summed over the scales,
    on an odd, off-centre uniform xi grid."""
    order = _as_order(alpha)
    sc = log_scale_grid(2.0**-4, 2.0**4, 8, signs="both")
    xi_grid = Grid((axis_linspace(-23.0, 31.0, 101),))
    xi = xi_grid.axis_points()[0]
    got = truncated_coverage(psi, order, sc, xi_grid)
    power = np.abs(fractional_spectrum(psi, order, sc.vectors.ravel()[:, None] * xi[None, :])) ** 2
    want = np.tensordot(sc.log_measure_weights(), power, axes=1)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))



def _rows_of(full: np.ndarray, nested: np.ndarray) -> np.ndarray:
    """Indices of nested's scales in full, which must hold them bit for bit."""
    rows = np.searchsorted(full, nested)
    assert np.array_equal(full[rows], nested)
    return rows


@pytest.mark.parametrize("a_min, a_max, cells", [(0.25, 4.0, 32), (0.125, 8.0, 48)])
@pytest.mark.parametrize("psi", [MEX, MOR], ids=["real", "complex"])
def test_chirp_z_row_depends_on_its_own_scale_only(scales_wide, psi, a_min, a_max, cells):
    """Each scale sums its own Nyquist-sized profile grid, so a range nested
    in the default one at the same 8 cells an octave gives bit-identical
    rows for the scales the two share."""
    order = _as_order(ALPHA)
    axis = axis_linspace(-23.0, 31.0, 101)
    full = scales_wide.vectors.ravel()
    nested = log_scale_grid(a_min, a_max, cells, signs="both").vectors.ravel()
    want = cfrwt_module._spectrum_power_chirp_z(psi, order, full, axis)
    got = cfrwt_module._spectrum_power_chirp_z(psi, order, nested, axis)
    assert np.array_equal(got, want[_rows_of(full, nested)])


@pytest.mark.parametrize("alpha", FIVE_ORDERS)
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_per_scale_coverage_matches_fine_grid(scales_wide, name, alpha):
    """Coverage on per-scale Nyquist grids against |Psi_alpha|^2 from the
    fixed 8192-point quadrature, at 1e-12 of the peak, on the default scale
    range and on a range nested in it."""
    psi = get_wavelet(name)
    order = _as_order(alpha)
    xi_grid = Grid((axis_linspace(-39.0, 35.0, 3),))
    xi = xi_grid.axis_points()[0]
    full = scales_wide.vectors.ravel()
    power = np.abs(fine_grid_fractional_spectrum(psi, alpha, full[:, None] * xi[None, :])) ** 2
    nested = log_scale_grid(0.125, 8.0, 48, signs="both")
    for sc, part in ((scales_wide, power), (nested, power[_rows_of(full, nested.vectors.ravel())])):
        got = truncated_coverage(psi, order, sc, xi_grid)
        want = np.tensordot(sc.log_measure_weights(), part, axes=1)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def test_tap_spectra_are_cached_read_only(grid, scales_wide, gabor):
    first = cfrwt_fast(gabor, DOG3, ALPHA, scales_wide).values
    before = cache_info()["analysis_plan"]
    again = cfrwt_fast(gabor, DOG3, ALPHA, scales_wide).values
    after = cache_info()["analysis_plan"]
    assert np.array_equal(first, again)
    assert after.misses == before.misses and after.hits > before.hits
    chunks, _, pads = cfrwt_module._chunk_plan(grid, scales_wide.count)
    plan = cfrwt_module._analysis_plan(DOG3, grid, pads, chunks[0].stop, scales_wide.vectors.tobytes())
    mags = np.unique(np.abs(scales_wide.vectors))
    table, _ = cfrwt_module._tap_spectrum(DOG3, True, grid.axes[0].step, grid.axes[0].count, pads[0], mags.tobytes())
    assert np.array_equal(plan.tables[0], table)
    assert not plan.tables[0].flags.writeable


@pytest.mark.parametrize("psi, rows", [(MEX, 64), (DOG3, 128)], ids=["even", "odd"])
def test_tap_tables_hold_one_row_per_distinct_tap_row(grid, scales_wide, psi, rows):
    """128 signed scales over 64 magnitudes: an even profile's +-a rows are
    one row, an odd profile's two."""
    pad = cfrwt_module._chunk_plan(grid, scales_wide.count)[2][0]
    (table, ids), = cfrwt_module._tap_layout(psi, True, grid, (pad,), scales_wide.vectors)
    assert len(table) == len(set(ids.tolist())) == rows


def test_a_long_pass_fits_the_tap_memo(monkeypatch):
    """A 1-D N=4096 pass over the default 128 scales needs a table of 64
    rows, 8 MiB, which its plan holds within the memo's budget, so a
    second identical pass only hits and computes no table."""
    g = Grid((axis_centered(1 / 64, 4096),))
    f = sample(g, lambda t: np.exp(-(t**2) / 2) * np.exp(4j * t))
    sc = log_scale_grid(2.0**-4, 2.0**4, 64, signs="both")
    want = cfrwt_fast(f, MEX, ALPHA, sc).values
    builds = _count_tap_builds(monkeypatch)
    before = cache_info()["analysis_plan"]
    assert np.array_equal(cfrwt_fast(f, MEX, ALPHA, sc).values, want)
    after = cache_info()["analysis_plan"]
    assert (after.hits - before.hits, after.misses - before.misses, len(builds)) == (1, 0, 0)
    chunks, _, pads = cfrwt_module._chunk_plan(g, sc.count)
    plan = cfrwt_module._analysis_plan(MEX, g, pads, chunks[0].stop, sc.vectors.tobytes())
    assert plan.tables[0].nbytes == 8 << 20


def _count_tap_builds(monkeypatch) -> list:
    """The magnitudes of every tap table built from now on."""
    builds = []
    build = cfrwt_module._tap_spectrum

    def counted(*key):
        builds.append(key[-1])
        return build(*key)

    monkeypatch.setattr(cfrwt_module, "_tap_spectrum", counted)
    return builds


@pytest.mark.parametrize("n", [101, 256, 4096])
def test_negative_scale_taps_are_the_reversed_positive_ones(n):
    """For every catalog profile, the taps computed at -a are those at +a
    reversed, bit for bit, on both the analysis and the synthesis side;
    exactly the even profiles give palindromes."""
    axis = AxisSpec(-4.0, 8.0 / n, n)
    palindromes = set()
    for name, psi in CATALOG.items():
        for a in (0.07, 0.9, 3.3):
            for analysis in (True, False):
                x = np.arange(-(n - 1), n) * axis.step
                plus, minus = (np.conj(psi.profile(-x / b)) if analysis else psi.profile(x / b) for b in (a, -a))
                assert np.array_equal(minus, plus[::-1]), (name, a, analysis)
        if np.array_equal(plus, plus[::-1]):
            palindromes.add(name)
    assert palindromes == {"mexican_hat", "dog4", "gaussian"}


def _bit_equal(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


# the default budget, three 1-D rows per table and block, and one row (an
# odd profile's table then holds a magnitude's two rows)
@pytest.mark.parametrize("chunk_bytes", [frft_module._CHUNK_BYTES, 3 * 16 * 512, 16], ids=["1MiB", "3rows", "1row"])
@pytest.mark.parametrize("signs", ["both", "positive"])
@pytest.mark.parametrize("case", ["1d-101", "1d-256", "2d-30x27"])
@pytest.mark.parametrize("psi", [MEX, DOG4, DOG3, MOR, PERTURBED], ids=lambda p: p.name)
def test_fast_is_bitwise_the_per_vector_route(psi, case, signs, chunk_bytes, monkeypatch):
    """One coefficient row per distinct tuple of tap rows, ±a twins copied,
    gives the bits of correlating every scale vector on its own, compared
    as integers: the rows multiplied by 1 / sqrt|a| equal the oracle's
    rows divided by sqrt|a|, their exact zeros (1d-256) included."""
    f = (gabor_signal if case == "1d-256" else twin_signal)(named_grid(case))
    sc = named_scales(case, signs)
    monkeypatch.setattr(frft_module, "_CHUNK_BYTES", chunk_bytes)
    assert _bit_equal(cfrwt_fast(f, psi, ALPHA, sc).values, per_vector_cfrwt(f, psi, ALPHA, sc))


@pytest.mark.parametrize("ndim", [1, 2])
def test_twin_scale_vectors_read_the_same_bits(ndim):
    """An even wavelet's coefficients at a and at -a are one row."""
    f, sc = twin_inputs({1: "1d-101", 2: "2d-30x27"}[ndim])
    values = cfrwt_fast(f, MEX, ALPHA, sc).values
    vectors = [tuple(v) for v in sc.vectors.tolist()]
    a = vectors[-1]
    twin = vectors.index(tuple(-c for c in a))
    assert np.array_equal(values[twin], values[-1])
    assert np.any(values[-1] != values[-2])


def test_signed_taps_oracle_is_the_package_tap_table(grid, scales_wide):
    pad = cfrwt_module._chunk_plan(grid, scales_wide.count)[2][0]
    (table, rows), = cfrwt_module._tap_layout(DOG3, False, grid, (pad,), scales_wide.vectors)
    for a, row in zip(scales_wide.vectors[:, 0], rows):
        (_, spectrum), = signed_tap_spectrum(DOG3, False, grid.axes[0], a)
        assert np.array_equal(table[row], spectrum[0])


def test_inner_product_relation_two_wavelets(grid, scales_wide, gabor, gabor_coeffs):
    g2 = sample(grid, lambda t: np.exp(-((t + 0.3) ** 2) / (2 * 0.35**2)) * np.exp(2.5j * t))
    rep = inner_product_relation_check(gabor_coeffs, gabor, cfrwt_fast(g2, DOG4, ALPHA, scales_wide), g2)
    assert rep.passed
    assert rep.ratio < 0.03


def test_inner_product_relation_orthogonal_pair(grid, scales_wide):
    even = sample(grid, lambda t: np.exp(-(t**2) / (2 * 0.5**2)))
    odd = sample(grid, lambda t: t * np.exp(-(t**2) / (2 * 0.5**2)))
    w_even, w_odd = (cfrwt_fast(h, MEX, ALPHA, scales_wide) for h in (even, odd))
    rep = inner_product_relation_check(w_even, even, w_odd, odd)
    # Both sides are near zero; the normalized deviation stays tiny.
    assert rep.ratio < 1e-3


def test_self_pairing_matches_plancherel(gabor, gabor_coeffs):
    rep = inner_product_relation_check(gabor_coeffs, gabor, gabor_coeffs, gabor)
    ratio = rep.lhs / rep.rhs
    plancherel = plancherel_check(gabor_coeffs, gabor).ratio
    assert abs(ratio.imag) < 1e-12
    assert ratio.real == pytest.approx(plancherel, abs=1e-12)


@pytest.mark.parametrize("differs_in", ["grid", "order", "scales", "scale measure"])
def test_inner_product_relation_refuses_fields_of_different_passes(differs_in, grid, gabor, gabor_coeffs, scales_wide):
    """Each field lies on its own signal's grid, but the two were not taken
    on one grid, at one order and over one scale set."""
    g_grid = Grid((axis_centered(0.0625, 128),)) if differs_in == "grid" else grid
    g = sample(g_grid, lambda t: np.exp(-(t**2)) * np.exp(2j * t))
    order = ALPHA + 0.1 if differs_in == "order" else ALPHA
    scales = {
        "scales": log_scale_grid(2.0**-3, 2.0**4, 56, ndim=1, signs="both"),
        "scale measure": ScaleGrid(scales_wide.vectors, 2 * scales_wide.log_step, 2.0**-4, 2.0**4, "both"),
    }.get(differs_in, scales_wide)
    with pytest.raises(GridMismatch):
        inner_product_relation_check(gabor_coeffs, gabor, cfrwt_fast(g, DOG4, order, scales), g)


# ------------------------------------------------------------ reconstruction


def recon_error(coeffs, phi, psi, reference):
    back = reconstruct(coeffs, phi, psi)
    return l2_norm(SampledSignal(reference.grid, back.values - reference.values)) / l2_norm(
        reference
    )


def test_reconstruct_odd_pair(grid, scales_wide):
    f = sample(
        grid,
        lambda t: np.exp(-((t - 1) ** 2) / (2 * 0.3**2)) - np.exp(-((t + 1) ** 2) / (2 * 0.3**2)),
    )
    w = cfrwt_fast(f, MEX, ALPHA, scales_wide)
    assert recon_error(w, MEX, MEX, f) < 0.05


def test_reconstruct_modulated_gaussian(grid, scales_wide):
    # Carrier at 5 keeps the spectral mass inside the covered band; slower
    # carriers leave low-frequency mass no scale reaches.
    f = sample(grid, lambda t: np.exp(-(t**2) / (2 * 0.5**2)) * np.exp(5j * t))
    w = cfrwt_fast(f, MEX, ALPHA, scales_wide)
    assert recon_error(w, MEX, MEX, f) < 0.05


def test_reconstruct_two_wavelet(grid, scales_wide):
    f = sample(
        grid,
        lambda t: np.exp(-((t - 1) ** 2) / (2 * 0.3**2)) - np.exp(-((t + 1) ** 2) / (2 * 0.3**2)),
    )
    w = cfrwt_fast(f, MEX, ALPHA, scales_wide)
    assert recon_error(w, DOG4, MEX, f) < 0.08


def test_reconstruct_gaussian_shortfall_is_explained(grid, scales_wide):
    """A plain Gaussian has spectral mass at the origin, which no scale
    covers.  The reconstruction error is large and agrees with the
    truncated-coverage prediction; anything near 0.05 would be fake."""
    from frwt.frft import frft_fast

    f = sample(grid, lambda t: np.exp(-(t**2) / (2 * 0.2**2)))
    w = cfrwt_fast(f, MEX, ALPHA, scales_wide)
    err = recon_error(w, MEX, MEX, f)
    assert 0.10 < err < 0.17

    order = _as_order(ALPHA)
    spec = frft_fast(f, order)
    kappa = truncated_coverage(MEX, order, scales_wide, spec.grid)
    c_full = admissibility_constant(MEX, order).value.real
    weight = spec.grid.weights() * np.abs(spec.values) ** 2
    predicted = math.sqrt(float(np.sum(weight * (1 - kappa / c_full) ** 2) / np.sum(weight)))
    assert 0.5 * predicted < err < 1.2 * predicted


@pytest.mark.parametrize(
    "axes,a_count",
    [
        ((axis_centered(0.0625, 256),), 16),
        ((AxisSpec(-4.0, 0.1, 101),), 16),
        ((axis_centered(0.4, 30), AxisSpec(-4.0, 0.35, 27)), 4),
    ],
    ids=["1d-256", "1d-101", "2d-30x27"],
)
def test_reconstruct_matches_brute_sum(axes, a_count):
    # complex, asymmetric profiles: with an even analysis wavelet the
    # coefficients at a and -a coincide and would hide a lag-sign slip
    w = _synthesis_case(axes, a_count)
    chunks = cfrwt_module._chunk_plan(w.b_grid, w.scales.count)[0]
    if w.b_grid.ndim == 2:
        # several chunks, the last one short
        assert len(chunks) > 1 and chunks[-1].stop - chunks[-1].start < chunks[0].stop
    fast = reconstruct(w, MOR, MOR, cross_value=CROSS)
    brute = brute_reconstruct(w, MOR.profile, CROSS)
    assert relative_peak_error(fast.values, brute) < 1e-12


@pytest.mark.parametrize("psi", [MEX, MOR], ids=lambda p: p.name)
@pytest.mark.parametrize(
    "axes,a_count",
    [
        ((axis_centered(0.0625, 256),), 16),
        ((AxisSpec(-4.0, 0.1, 101),), 16),
        ((axis_centered(0.4, 30), AxisSpec(-4.0, 0.35, 27)), 4),
        ((axis_centered(0.5, 12), AxisSpec(-3.0, 0.6, 10), axis_centered(0.7, 9)), 2),
    ],
    ids=["1d-256", "1d-101", "2d-30x27", "3d-12x10x9"],
)
def test_reconstruct_matches_per_scale_route(axes, a_count, psi):
    w = _synthesis_case(axes, a_count, psi)
    fast = reconstruct(w, psi, psi, cross_value=CROSS)
    oracle = per_scale_reconstruct(w, psi, CROSS)
    assert relative_peak_error(fast.values, oracle) <= 1e-13


# ---------------------------------------------------------- synthesis twins

# the default budget, about 8, 2 and 1 rows of the 1-D 256-sample pass,
# and one row of any pass
SYNTHESIS_CHUNK_BYTES = (frft_module._CHUNK_BYTES, 70_000, 20_000, 4096, 100)
TWIN_CASES = ("1d-101", "1d-256", "2d-30x27", "3d-12x9x7")


def _twin_field(case, signs="both", psi=MEX, shuffled=False, alpha=ALPHA):
    f, sc = twin_inputs(case, signs, shuffled)
    return cfrwt_fast(f, psi, alpha, sc)


@pytest.fixture
def twin_rows(monkeypatch):
    """The number of twin rows, copied instead of convolved, of each
    reconstruct call."""
    counts = []
    real = cfrwt_module._twin_rows

    def spy(plan, step, values):
        steps = real(plan, step, values)
        counts.append(sum(len(range(step)[dst]) for _, twins in steps if twins for dst, _ in twins[1]))
        return steps

    monkeypatch.setattr(cfrwt_module, "_twin_rows", spy)
    return counts


@pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
@pytest.mark.parametrize("signs", ["both", "positive"])
@pytest.mark.parametrize("case", TWIN_CASES)
@pytest.mark.parametrize("psi", [MEX, DOG4, DOG3, MOR, PERTURBED], ids=lambda p: p.name)
def test_reconstruct_is_bitwise_the_per_vector_route(psi, case, signs, shuffled, monkeypatch):
    """Each distinct row of a chunk convolved once and copied to its twins
    gives the bits of one product row per scale vector, at any chunk
    size."""
    w = _twin_field(case, signs, psi, shuffled)
    want = per_vector_reconstruct(w, psi, CROSS)
    for chunk_bytes in SYNTHESIS_CHUNK_BYTES:
        monkeypatch.setattr(frft_module, "_CHUNK_BYTES", chunk_bytes)
        got = reconstruct(w, psi, psi, cross_value=CROSS).values
        assert np.array_equal(got, want), chunk_bytes


@pytest.mark.parametrize("alpha", [0.9, 2.2])
@pytest.mark.parametrize("phi", [MEX, DOG4], ids=lambda p: p.name)
def test_the_stream_pass_convolves_half_its_rows(phi, alpha, twin_rows):
    """The benchmark stream's mexican_hat field over 128 signed scales is
    one chunk in which every -a row is the +a row's twin."""
    w = _twin_field("1d-256", alpha=alpha)
    got = reconstruct(w, phi, MEX, cross_value=CROSS).values
    assert np.array_equal(got, per_vector_reconstruct(w, phi, CROSS))
    assert twin_rows == [64]


def test_twins_need_even_taps_both_signs_and_one_chunk(twin_rows, monkeypatch):
    reconstruct(_twin_field("1d-256"), DOG3, MEX, cross_value=CROSS)
    reconstruct(_twin_field("1d-256", "positive"), MEX, MEX, cross_value=CROSS)
    # eight rows a chunk: each chunk holds one sign only
    monkeypatch.setattr(frft_module, "_CHUNK_BYTES", 70_000)
    reconstruct(_twin_field("1d-256"), MEX, MEX, cross_value=CROSS)
    assert twin_rows == [0, 0, 0]


@pytest.mark.parametrize("edit", ["signed-zero", "one-ulp"])
def test_a_twin_row_off_by_one_bit_is_convolved_on_its_own(edit, twin_rows):
    """Only the pair at +-a_max keeps its rows, so one ulp reaches the
    output, and one of them then differs in one bit."""
    w = _twin_field("1d-101")
    top, twin = w.scales.count - 1, 0
    assert w.scales.vectors[twin, 0] == -w.scales.vectors[top, 0]
    values = np.zeros_like(w.values)
    values[[top, twin]] = w.values[top]
    if edit == "signed-zero":
        values[[top, twin], 5] = 0.0
        values[twin, 5] = complex(-0.0, 0.0)
    else:
        values[twin, 50] = complex(np.nextafter(values[twin, 50].real, np.inf), values[twin, 50].imag)
    field = CfrwtCoefficients(values, w.b_grid, w.scales, w.order, w.wavelet)
    got = reconstruct(field, MEX, MEX, cross_value=CROSS).values
    assert np.array_equal(got.view(np.uint64), per_vector_reconstruct(field, MEX, CROSS).view(np.uint64))
    # the zero rows of the other 23 pairs are still twins
    assert twin_rows == [w.scales.count // 2 - 1]


def test_a_field_read_from_a_file_reconstructs_bitwise(tmp_path, twin_rows):
    w = _twin_field("1d-256")
    write_coefficients(tmp_path / "field.bin", w)
    back = read_coefficients(tmp_path / "field.bin")
    got = reconstruct(back, MEX, MEX, cross_value=CROSS).values
    assert np.array_equal(got, per_vector_reconstruct(back, MEX, CROSS))
    assert np.array_equal(got, reconstruct(w, MEX, MEX, cross_value=CROSS).values)
    assert twin_rows == [64, 64]


# reconstruct's tracemalloc peak in bytes, measured before it convolved
# each distinct row of a chunk once (numpy 2.4): the benchmark stream's
# field, and a 2-D 64^2 field over 256 signed scale vectors, the CLI
# benchmark's 2-D item, whose chunks of 8 hold no twins
PEAK_BEFORE = {"1d-256": 1_460_024, "2d-64x64": 2_703_832}


@pytest.mark.parametrize("case", sorted(PEAK_BEFORE))
def test_synthesis_twins_take_no_more_memory(case):
    if case == "1d-256":
        w = _twin_field(case)
    else:
        g = Grid((axis_centered(0.125, 64), axis_centered(0.125, 64)))
        f = sample(g, lambda x, y: np.exp(-((x - 0.3) ** 2 + y**2) / 0.5) * np.exp(5.5j * x))
        w = cfrwt_fast(f, MEX, ALPHA, log_scale_grid(0.125, 8.0, 8, ndim=2, signs="both"))
    reconstruct(w, MEX, MEX, cross_value=CROSS)
    tracemalloc.start()
    try:
        reconstruct(w, MEX, MEX, cross_value=CROSS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BEFORE[case]


# ---------------------------------------------------------- synthesis plan

# the default budget, about 2 rows of the 1-D 256-sample pass, and one row
PLAN_CHUNK_BYTES = (frft_module._CHUNK_BYTES, 20_000, 100)
PLAN_CASES = [("1d-256", False), ("2d-30x27", False), ("3d-12x9x7", False), ("1d-256", True), ("2d-30x27", True)]


def _synthesis_info():
    return cache_info()["synthesis_plan"]


def _plan_calls(before):
    """(hits, misses) of the synthesis plan memo since before."""
    after = _synthesis_info()
    return after.hits - before.hits, after.misses - before.misses


@pytest.mark.parametrize("chunk_bytes", PLAN_CHUNK_BYTES)
@pytest.mark.parametrize("case, shuffled", PLAN_CASES, ids=[f"{c}-{'shuffled' if s else 'sorted'}" for c, s in PLAN_CASES])
def test_a_warm_synthesis_plan_gives_the_same_bits(case, shuffled, chunk_bytes, monkeypatch):
    """A second pass over the same grid and scales only hits the plan memo
    and gives the first pass's bits, which are one product row per scale
    vector's."""
    monkeypatch.setattr(frft_module, "_CHUNK_BYTES", chunk_bytes)
    f, sc = twin_inputs(case, shuffled=shuffled)
    w = cfrwt_fast(f, MEX, ALPHA, sc)
    assert np.array_equal(w.values, per_vector_cfrwt(f, MEX, ALPHA, sc))
    first = reconstruct(w, MEX, MEX, cross_value=CROSS).values
    before = _synthesis_info()
    again = reconstruct(w, MEX, MEX, cross_value=CROSS).values
    assert _plan_calls(before) == (1, 0)
    assert np.array_equal(again, first)
    assert np.array_equal(again, per_vector_reconstruct(w, MEX, CROSS))


@pytest.mark.parametrize("edit", ["one-bit", "negative-zero"])
def test_a_warm_plan_compares_every_field_s_twin_rows(edit, twin_rows):
    """The plan assumes its candidates are twins; a field whose twin row
    differs in one bit is convolved row by row there, plan warm or not."""
    w = _twin_field("1d-256")
    reconstruct(w, MEX, MEX, cross_value=CROSS)
    # row 0 (-a_max) is the candidate twin of row 127 (+a_max)
    values = w.values.copy()
    if edit == "one-bit":
        values.view(np.uint64)[0, 200] ^= 1
    else:
        values[[0, 127], 100] = 0.0
        values[0, 100] = complex(-0.0, 0.0)
    field = CfrwtCoefficients(values, w.b_grid, w.scales, w.order, w.wavelet)
    before = _synthesis_info()
    got = reconstruct(field, MEX, MEX, cross_value=CROSS).values
    assert _plan_calls(before) == (1, 0)
    assert np.array_equal(got.view(np.uint64), per_vector_reconstruct(field, MEX, CROSS).view(np.uint64))
    assert twin_rows == [64, 63]


def test_the_synthesis_plan_is_keyed_by_the_scale_values():
    w = _twin_field("1d-101")
    want = reconstruct(w, MEX, MEX, cross_value=CROSS).values
    sc = w.scales
    equal = ScaleGrid(sc.vectors.copy(), sc.log_step, sc.a_min, sc.a_max, sc.signs)
    field = CfrwtCoefficients(w.values, w.b_grid, equal, w.order, w.wavelet)
    before = _synthesis_info()
    assert np.array_equal(reconstruct(field, MEX, MEX, cross_value=CROSS).values, want)
    assert _plan_calls(before) == (1, 0)
    # an edit in place is a new key, whose plan gives the edited result
    equal.vectors[3, 0] *= 1.5
    before = _synthesis_info()
    got = reconstruct(field, MEX, MEX, cross_value=CROSS).values
    assert _plan_calls(before) == (0, 1)
    assert np.array_equal(got, per_vector_reconstruct(field, MEX, CROSS))
    assert not np.array_equal(got, want)


def test_the_synthesis_plan_is_keyed_by_the_log_step_and_its_sign():
    """The plan computes the measure weights from the scale vectors and
    log_step, so an equal vector set at another log_step is a new key, and
    so is -0.0 after 0.0: it equals 0.0 but gives its weights other
    signs."""
    w = _twin_field("1d-101")
    sc = w.scales
    for log_step in (2 * sc.log_step, 0.0, -0.0):
        scaled = ScaleGrid(sc.vectors, log_step, sc.a_min, sc.a_max, sc.signs)
        field = CfrwtCoefficients(w.values, w.b_grid, scaled, w.order, w.wavelet)
        before = _synthesis_info()
        got = reconstruct(field, MEX, MEX, cross_value=CROSS).values
        assert _plan_calls(before) == (0, 1)
        assert np.array_equal(got.view(np.uint64), per_vector_reconstruct(field, MEX, CROSS).view(np.uint64))


@pytest.mark.parametrize("case", ["1d-256", "2d-30x27"])
def test_a_pass_sets_numpys_buffer_size_once_and_restores_it(case, monkeypatch):
    """cfrwt_fast and reconstruct each open one short-buffer scope around
    every helper that needs it, the padded convolutions, the writes and
    the twin check among them: one np.setbufsize call sets the size and
    one restores it.  A directly called _fft_convolve opens its own."""
    f, sc = twin_inputs(case)
    w = cfrwt_fast(f, MEX, ALPHA, sc)
    calls = []
    setbufsize = np.setbufsize

    def counted(size):
        calls.append(size)
        return setbufsize(size)

    monkeypatch.setattr(np, "setbufsize", counted)
    default = np.getbufsize()
    u = np.ones((2, 8), dtype=np.complex128)
    runs = (
        lambda: cfrwt_fast(f, MEX, ALPHA, sc),
        lambda: reconstruct(w, MEX, MEX, cross_value=CROSS),
        lambda: frft_module._fft_convolve(u, np.ones((2, 16), dtype=np.complex128), (1,)),
    )
    for run in runs:
        calls.clear()
        run()
        assert calls == [frft_module._UFUNC_BUFSIZE, default]
        assert np.getbufsize() == default


def test_an_overflowing_reconstruction_is_refused():
    """reconstruct's output skips the signal constructor's conversion and
    shape check, not its finiteness check."""
    grid = Grid((axis_centered(1.0, 64),))
    sc = log_scale_grid(0.5, 2.0, 2, signs="both")
    values = np.full((sc.count,) + grid.shape, 1.7e308, dtype=np.complex128)
    field = CfrwtCoefficients(values, grid, sc, _as_order(ALPHA), MEX)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite samples"):
        reconstruct(field, MEX, MEX, cross_value=CROSS)


# reconstruct's tracemalloc peak on the stream field beyond its 1 MiB work
# buffer (numpy 2.4): 48 264 B measured, 281 763 B before the synthesis
# plan and _fft_convolve's short ufunc buffers
SYNTHESIS_PEAK_MARGIN = 64 * 1024


def test_reconstruct_needs_little_beyond_its_work_buffer():
    w = _twin_field("1d-256")
    reconstruct(w, MEX, MEX, cross_value=CROSS)
    tracemalloc.start()
    try:
        reconstruct(w, MEX, MEX, cross_value=CROSS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= frft_module._CHUNK_BYTES + SYNTHESIS_PEAK_MARGIN


# ----------------------------------------------------------- analysis plan


def _analysis_info():
    return cache_info()["analysis_plan"]


def _analysis_calls(before):
    """(hits, misses) of the analysis plan memo since before."""
    after = _analysis_info()
    return after.hits - before.hits, after.misses - before.misses


@pytest.mark.parametrize("psi", [MEX, DOG3], ids=lambda p: p.name)
@pytest.mark.parametrize("chunk_bytes", PLAN_CHUNK_BYTES)
@pytest.mark.parametrize("case, shuffled", PLAN_CASES, ids=[f"{c}-{'shuffled' if s else 'sorted'}" for c, s in PLAN_CASES])
def test_cold_and_warm_analysis_plans_give_the_per_vector_bits(case, shuffled, chunk_bytes, psi, monkeypatch):
    monkeypatch.setattr(frft_module, "_CHUNK_BYTES", chunk_bytes)
    f, sc = twin_inputs(case, shuffled=shuffled)
    want = per_vector_cfrwt(f, psi, ALPHA, sc)
    memo._clear()
    cold = cfrwt_fast(f, psi, ALPHA, sc).values
    before = _analysis_info()
    warm = cfrwt_fast(f, psi, ALPHA, sc).values
    assert _analysis_calls(before) == (1, 0)
    assert np.array_equal(cold, want)
    assert np.array_equal(warm, want)


def test_the_analysis_plan_is_keyed_by_the_scale_values():
    f, sc = twin_inputs("1d-101")
    want = cfrwt_fast(f, MEX, ALPHA, sc).values
    equal = ScaleGrid(sc.vectors.copy(), sc.log_step, sc.a_min, sc.a_max, sc.signs)
    before = _analysis_info()
    assert np.array_equal(cfrwt_fast(f, MEX, ALPHA, equal).values, want)
    assert _analysis_calls(before) == (1, 0)
    # an edit in place is a new key, whose plan gives the edited result
    equal.vectors[3, 0] *= 1.5
    before = _analysis_info()
    got = cfrwt_fast(f, MEX, ALPHA, equal).values
    assert _analysis_calls(before) == (0, 1)
    assert np.array_equal(got, per_vector_cfrwt(f, MEX, ALPHA, equal))
    assert not np.array_equal(got, want)


def test_analysis_cache_info_counts_the_plan_memo():
    memo._clear()
    f, sc = twin_inputs("1d-101")
    cfrwt_fast(f, MEX, ALPHA, sc)
    # the order is no part of the plan; the wavelet is
    cfrwt_fast(f, MEX, 2.2, sc)
    cfrwt_fast(f, DOG3, ALPHA, sc)
    info = _analysis_info()
    assert (info.hits, info.misses, info.entries) == (1, 2, 2)


def test_a_first_pass_computes_each_tap_table_once(monkeypatch):
    """A 1-D N=4096 dog3 pass over the default 128 signed scales needs a
    table of 64 magnitudes' two rows each, 16 MiB, for each direction:
    each pass's plan computes it once, and gives the bits of a later call
    (the plan, over the memo's budget, is built again)."""
    g = Grid((axis_centered(1 / 64, 4096),))
    f = sample(g, lambda t: np.exp(-(t**2) / 2) * np.exp(4j * t))
    sc = log_scale_grid(2.0**-4, 2.0**4, 64, signs="both")
    memo._clear()
    builds = _count_tap_builds(monkeypatch)
    w = cfrwt_fast(f, DOG3, ALPHA, sc)
    analysis_builds = len(builds)
    first = reconstruct(w, DOG3, DOG3, cross_value=CROSS).values
    assert (analysis_builds, len(builds) - analysis_builds) == (1, 1)
    assert np.array_equal(w.values, cfrwt_fast(f, DOG3, ALPHA, sc).values)
    assert np.array_equal(w.values, per_vector_cfrwt(f, DOG3, ALPHA, sc))
    assert np.array_equal(first, reconstruct(w, DOG3, DOG3, cross_value=CROSS).values)


# cfrwt_fast's tracemalloc peak on the stream field beyond its output and
# its 1 MiB work buffer (numpy 2.4): 17 680 B measured.  It was 404 488 B
# while the normalizing multiply and chirp, whose rows are strided and
# whose reciprocals and chirp broadcast, ran through numpy's default
# ufunc buffers instead of frft._short_buffers.
ANALYSIS_PEAK_MARGIN = 32 * 1024


def test_cfrwt_fast_needs_little_beyond_its_output_and_work_buffer():
    f, sc = twin_inputs("1d-256")
    cfrwt_fast(f, MEX, ALPHA, sc)
    tracemalloc.start()
    try:
        w = cfrwt_fast(f, MEX, ALPHA, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= w.values.nbytes + frft_module._CHUNK_BYTES + ANALYSIS_PEAK_MARGIN


# ------------------------------------------------ reciprocal normalization


@pytest.mark.parametrize("case", ["1d-101", "1d-256", "2d-30x27"])
def test_an_all_zero_signal_still_gives_an_all_zero_field(case):
    """Multiplying by 1 / sqrt|a| instead of dividing by sqrt|a| keeps
    every nonzero bit (test_fast_is_bitwise_the_per_vector_route), but a
    zero row may come out with zeros of other signs."""
    f, sc = twin_inputs(case)
    zero = SampledSignal(f.grid, np.zeros(f.grid.shape))
    got = cfrwt_fast(zero, MEX, ALPHA, sc).values
    assert not got.any()
    assert np.array_equal(got, per_vector_cfrwt(zero, MEX, ALPHA, sc))


# ----------------------------------------------------- plan and chirp memos

# two with sin(alpha) < 0
MEMO_ORDERS = (0.9, 2.2, -1.1, 3.7)
# start+0 and start-0 are equal grids, hash and all, whose points and
# chirps are bit-equal
MEMO_CASES = ("1d-101", "1d-256", "2d-30x27", "start+0", "start-0")


@pytest.mark.parametrize("alpha", MEMO_ORDERS)
@pytest.mark.parametrize("case", MEMO_CASES)
def test_cold_and_warm_grid_chirps_give_the_per_vector_bits(case, alpha):
    f, sc = twin_inputs(case)
    order = _as_order(alpha)
    # the per-vector oracle shares the chirped input, so pin it on its own
    chirped = f.values * f.grid.weights() * frft_module._chirp(f.grid.radius_sq(), order.cot)
    want = per_vector_cfrwt(f, MEX, alpha, sc)
    memo._clear()
    for _ in range(2):
        assert _bit_equal(cfrwt_module._chirped_input(f, order), chirped)
        w = cfrwt_fast(f, MEX, alpha, sc)
        assert _bit_equal(w.values, want)
        got = reconstruct(w, MEX, MEX, cross_value=CROSS).values
        assert _bit_equal(got, per_vector_reconstruct(w, MEX, CROSS))


def test_grids_starting_at_plus_and_minus_zero_share_their_chirps():
    memo._clear()
    for case in ("start+0", "start-0"):
        f, sc = twin_inputs(case)
        w = cfrwt_fast(f, MEX, -1.1, sc)
        assert _bit_equal(w.values, per_vector_cfrwt(f, MEX, -1.1, sc))
        got = reconstruct(w, MEX, MEX, cross_value=CROSS).values
        assert _bit_equal(got, per_vector_reconstruct(w, MEX, CROSS))
    # five chirps and three weights a grid (the oracle's chirped input
    # among them), two chirps and one weights built
    info = cache_info()
    assert (info["grid_chirp"].hits, info["grid_chirp"].misses) == (8, 2)
    assert (info["grid_weights"].hits, info["grid_weights"].misses) == (5, 1)


def test_kept_grid_chirps_are_read_only():
    f, sc = twin_inputs("1d-101")
    memo._clear()
    cfrwt_fast(f, MEX, ALPHA, sc)
    assert (cache_info()["grid_chirp"].entries, cache_info()["grid_weights"].entries) == (2, 1)
    arrays = [frft_module._grid_chirp(f.grid, factor) for factor in (_as_order(ALPHA).cot, -_as_order(ALPHA).cot)]
    for array in arrays + [frft_module._grid_weights(f.grid)]:
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_grid_chirps_over_the_byte_bound_are_computed_per_call(monkeypatch):
    g = Grid((axis_centered(0.05, 256), axis_centered(0.05, 256)))
    # weights of 512 KiB and chirps of 1 MiB
    monkeypatch.setattr(memo, "_BUDGET_BYTES", 256 * 1024)
    f = sample(g, lambda x, y: np.exp(-(x**2 + y**2)))
    sc = log_scale_grid(0.5, 1.0, 1, ndim=2, signs="positive")
    want = per_vector_cfrwt(f, MEX, ALPHA, sc)
    before = cache_info()
    w = cfrwt_fast(f, MEX, ALPHA, sc)
    got = reconstruct(w, MEX, MEX, cross_value=CROSS).values
    after = cache_info()
    # the analysis takes the weights and two chirps, the synthesis too
    for name in ("grid_chirp", "grid_weights"):
        assert after[name].entries == before[name].entries
        assert after[name].hits == before[name].hits
    assert after["grid_chirp"].misses - before["grid_chirp"].misses == 4
    assert _bit_equal(w.values, want)
    assert _bit_equal(got, per_vector_reconstruct(w, MEX, CROSS))


def test_plan_and_chirp_cache_info_count_a_warm_stream():
    f, sc = twin_inputs("1d-256")
    memo._clear()
    for _ in range(3):
        frft_module.frft_fast(f, ALPHA)
        w = cfrwt_fast(f, MEX, ALPHA, sc)
        reconstruct(w, DOG4, MEX, cross_value=CROSS)
    # frft_fast takes its plan and the weights, and the analysis and the
    # synthesis each take the weights, the +cot and -cot chirps and a plan
    counts = {name: (info.hits, info.misses, info.entries) for name, info in cache_info().items()}
    assert counts == {
        "analysis_plan": (2, 1, 1),
        "ball_orders": (0, 0, 0),
        "grid_chirp": (10, 2, 2),
        "grid_weights": (8, 1, 1),
        "scan": (0, 0, 0),
        "synthesis_plan": (2, 1, 1),
        "transform_plan": (2, 1, 1),
    }


def test_reconstruct_zero_coefficients(gabor_coeffs):
    zeros = CfrwtCoefficients(
        np.zeros_like(gabor_coeffs.values),
        gabor_coeffs.b_grid,
        gabor_coeffs.scales,
        gabor_coeffs.order,
        gabor_coeffs.wavelet,
    )
    back = reconstruct(zeros, MEX, MEX, cross_value=1.0)
    assert np.all(back.values == 0)


def test_reconstruct_rejects_wavelet_mismatch(gabor_coeffs):
    # the impostor carries the field's own name: unguarded, it reconstructs
    # this field with an error of 0.51, against 0.076 with the field's wavelet
    impostor = WaveletSpec("mexican_hat", lambda t: 2 * MEX.profile(t), 8.0)
    for psi_used in (DOG4, impostor):
        with pytest.raises(ValueError, match="coefficients were taken with 'mexican_hat'"):
            reconstruct(gabor_coeffs, MEX, psi_used)


def test_reconstruct_rejects_vanishing_cross_constant(gabor_coeffs):
    # Mexican hat and dog3 have spectra of opposite parity: the cross
    # constant cancels and no synthesis normalization exists.
    with pytest.raises(ZeroCrossAdmissibility):
        reconstruct(gabor_coeffs, DOG3, MEX)


@pytest.mark.parametrize(
    "entry",
    [
        lambda coeffs, grid: reconstruct(coeffs, MEX, MEX, cross_value=1e-9),
        # the dog3/mexican hat constant cancels to about 1.7e-15
        lambda coeffs, grid: reproducing_kernel(DOG3, MEX, ALPHA, ((0.5,), (1.0,)), ((0.5,), (1.0,)), grid),
        lambda coeffs, grid: range_membership_residual(coeffs, DOG3),
    ],
    ids=["reconstruct", "reproducing_kernel", "range_membership_residual"],
)
def test_given_cross_constant_below_zero_tolerance_is_refused(entry, gabor_coeffs, grid):
    with pytest.raises(ZeroCrossAdmissibility):
        entry(gabor_coeffs, grid)


def test_checks_read_a_wavelet_outside_the_catalog_from_the_field(gabor, scales_wide):
    """A field carries the wavelet it was taken with, catalog entry or not:
    the perturbed mexican hat of the Morrey suite normalizes every check."""
    pert = WaveletSpec("mexhat_perturbed", lambda t: MEX.profile(t) + 0.05 * DOG3.profile(t), 9.0)
    field = cfrwt_fast(gabor, pert, ALPHA, scales_wide)
    adm = admissibility_constant(pert, ALPHA).value.real
    assert adm != admissibility_constant(MEX, ALPHA).value.real
    assert field.wavelet is pert
    plancherel = plancherel_check(field, gabor)
    assert plancherel.details["admissibility"] == adm
    assert plancherel.passed
    assert heisenberg_cfrwt(field, gabor, ALPHA - HALF_PI).details["admissibility"] == adm
    assert lemma_moment_identity_check(field, gabor).details["admissibility"] == adm
    assert restricted_energy_identity_check(field, gabor, (2.5,), 1.5).passed
    assert range_membership_residual(field, pert) < 0.05


# -------------------------------------------------------- reproducing kernel


def test_reproducing_kernel_diagonal(grid):
    p0 = ((0.5,), (1.0,))
    k = reproducing_kernel(MEX, MEX, ALPHA, p0, p0, grid)
    assert abs(k.imag) <= 1e-10 * abs(k.real)
    assert k.real == pytest.approx(KERNEL_DIAG, rel=1e-10)


def test_reproducing_kernel_conjugate_symmetry(grid):
    p = ((0.5,), (1.0,))
    q = ((-0.25,), (2.0,))
    kpq = reproducing_kernel(MEX, MEX, ALPHA, p, q, grid)
    kqp = reproducing_kernel(MEX, MEX, ALPHA, q, p, grid)
    assert kpq == pytest.approx(np.conj(kqp), rel=1e-10)


def test_reproducing_kernel_decays_with_separation(grid):
    diag = reproducing_kernel(MEX, MEX, ALPHA, ((0.5,), (1.0,)), ((0.5,), (1.0,)), grid)
    far = reproducing_kernel(MEX, MEX, ALPHA, ((-4.0,), (0.5,)), ((4.0,), (0.5,)), grid)
    assert abs(far) < 1e-3 * abs(diag)


@pytest.mark.parametrize("phi, psi", [(MEX, MEX), (DOG4, MEX), (MEX, DOG4)], ids=["mex-mex", "dog4-mex", "mex-dog4"])
def test_reproducing_kernel_is_the_coefficient_pass_of_the_p0_daughter(phi, psi, grid):
    """At a grid point p = (b_k, a_s) the kernel is the synthesis factor
    times conj(W[s, k]), W the phi coefficient field of psi's p0 daughter:
    the inner products the quadrature takes one at a time are one pass."""
    p0 = ((0.5,), (1.0,))
    sc = log_scale_grid(0.25, 4.0, 16, ndim=1, signs="both")
    W = cfrwt_fast(make_daughter(psi, p0[1], p0[0], ALPHA, grid, tail_tol=None), phi, ALPHA, sc).values
    factor = abs(c_alpha(ALPHA)) ** 2 / cross_admissibility(phi, psi, ALPHA).value
    points = grid.axis_points()[0]
    shifts = range(0, grid.shape[0], 32)
    got = np.array(
        [[reproducing_kernel(phi, psi, ALPHA, p0, ((points[k],), tuple(a)), grid) for k in shifts] for a in sc.vectors]
    )
    # measured <= 4.4e-17 of the field's peak over these 256 points
    assert np.abs(got - factor * np.conj(W[:, ::32])).max() <= 1e-14 * np.abs(W).max()


def test_range_membership_discriminates_noise(grid, scales_wide):
    """Genuine transforms land inside the reproducing range; white noise in
    the coefficient domain does not."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-0.5, 0.5)
        w0 = rng.uniform(3.5, 5.0)
        s0 = rng.uniform(0.35, 0.55)
        f = sample(grid, lambda t: np.exp(-((t - c) ** 2) / (2 * s0**2)) * np.exp(1j * w0 * t))
        w = cfrwt_fast(f, MEX, ALPHA, scales_wide)
        assert range_membership_residual(w, MEX) < 0.05

    # noise arrays on the last genuine field's grid, scales, order and wavelet
    for seed in range(100, 105):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(w.values.shape) + 1j * rng.standard_normal(w.values.shape)
        fake = CfrwtCoefficients(raw, w.b_grid, w.scales, w.order, w.wavelet)
        assert range_membership_residual(fake, MEX) >= 0.20
