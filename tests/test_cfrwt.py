from __future__ import annotations

import math

import numpy as np
import pytest

from frwt.admissibility import admissibility_constant, fractional_spectrum
from frwt.cfrwt import (
    CfrwtCoefficients,
    cfrwt_direct,
    cfrwt_fast,
    inner_product_relation_check,
    kernel_projection,
    plancherel_check,
    range_membership_residual,
    reconstruct,
    reproducing_kernel,
    truncated_coverage,
)
from frwt import cfrwt as cfrwt_module
from frwt.errors import GridMismatch, InadmissibleWavelet, ZeroCrossAdmissibility
from frwt.frft import TransformOrder, _as_order
from frwt.grid import AxisSpec, Grid, SampledSignal, axis_centered, l2_norm, sample
from frwt.scales import log_scale_grid
from frwt.wavelets import DaughterParams, get_wavelet, make_daughter, wavelet_l2_norm

from oracles import brute_classical_cwt, brute_reconstruct

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
    return sample(grid, lambda t: np.exp(-((t - 0.5) ** 2) / (2 * 0.4**2)) * np.exp(3j * t))


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
    d = make_daughter(MEX, DaughterParams((2.0,), (1.5,), order), g)
    sc = log_scale_grid(2.0 * 2**-0.5, 2.0 * 2**0.5, 1, ndim=1, signs="positive")
    w = cfrwt_direct(SampledSignal(g, d.values), MEX, ALPHA, sc, b_grid=g)
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
    monkeypatch.setattr(cfrwt_module, "_CHUNK_BYTES", 3 * 16 * 512)
    assert len(cfrwt_module._scale_chunks(gabor.grid, scales_wide.count)) == 43
    chunked = cfrwt_fast(gabor, MEX, ALPHA, scales_wide)
    assert np.array_equal(chunked.values, gabor_coeffs.values)
    assert np.array_equal(reconstruct(chunked, DOG4, MEX, cross_value=CROSS).values, recon.values)


# ------------------------------------------------------------ energy checks


def test_plancherel_ratio_in_band(gabor_coeffs, gabor):
    rep = plancherel_check(gabor_coeffs, gabor, MEX)
    assert rep.passed
    assert 0.95 <= rep.ratio <= 1.05
    # The truncated-coverage oracle explains the shortfall from 1.
    assert rep.ratio == pytest.approx(rep.details["predicted_ratio"], abs=0.02)


def test_plancherel_nearly_order_invariant(gabor, scales_wide):
    # The covered spectral band rescales with sin(alpha), so at truncated
    # coverage the ratio moves a little; the per-order prediction tracks it.
    ratios = {}
    for alpha in (ALPHA, HALF_PI):
        w = cfrwt_fast(gabor, MEX, alpha, scales_wide)
        rep = plancherel_check(w, gabor, MEX)
        assert rep.ratio == pytest.approx(rep.details["predicted_ratio"], abs=0.02)
        ratios[alpha] = rep.ratio
    assert abs(ratios[ALPHA] - ratios[HALF_PI]) < 0.01


def test_plancherel_scale_invariance_is_exact(gabor, gabor_coeffs, scales_wide):
    doubled = SampledSignal(gabor.grid, 2.0 * gabor.values)
    wd = cfrwt_fast(doubled, MEX, ALPHA, scales_wide)
    r1 = plancherel_check(gabor_coeffs, gabor, MEX).ratio
    r2 = plancherel_check(wd, doubled, MEX).ratio
    assert r1 == r2  # quartic over quadratic homogeneity, exact in floats


def test_plancherel_monotone_in_nested_ranges(gabor):
    """Growing the scale range at fixed log density only adds nonnegative
    energy terms, and the octave-aligned grids nest bit for bit."""
    ratios = []
    for lo, hi, cells in ((0.25, 4.0, 32), (0.125, 8.0, 48), (0.0625, 16.0, 64)):
        sc = log_scale_grid(lo, hi, cells, ndim=1, signs="both")
        w = cfrwt_fast(gabor, MEX, ALPHA, sc)
        ratios.append(plancherel_check(w, gabor, MEX).ratio)
    assert ratios[0] < ratios[1] < ratios[2]
    assert 0.95 <= ratios[2] <= 1.05


def test_plancherel_rejects_grid_mismatch(gabor_coeffs):
    other = Grid((axis_centered(0.125, 128),))
    f = sample(other, lambda t: np.exp(-(t**2)))
    with pytest.raises(GridMismatch):
        plancherel_check(gabor_coeffs, f, MEX)


def test_plancherel_rejects_inadmissible_wavelet(grid, scales_wide):
    f = sample(grid, lambda t: np.exp(-(t**2)))
    w = cfrwt_fast(f, GAUSS, ALPHA, scales_wide)
    with pytest.raises(InadmissibleWavelet):
        plancherel_check(w, f, GAUSS)


def test_coverage_vanishes_at_origin_and_stays_below_one(scales_wide):
    order = _as_order(ALPHA)
    xi = np.linspace(-20.0, 20.0, 401)
    kappa = truncated_coverage(MEX, order, scales_wide, xi)
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
    xi = np.linspace(-23.0, 31.0, 101)
    got = truncated_coverage(psi, order, sc, xi)
    power = np.abs(fractional_spectrum(psi, order, sc.vectors.ravel()[:, None] * xi[None, :])) ** 2
    want = np.tensordot(sc.log_measure_weights(), power, axes=1)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_non_uniform_coverage_takes_the_direct_route():
    order = _as_order(ALPHA)
    sc = log_scale_grid(0.5, 2.0, 4, signs="both")
    xi = np.array([0.05, 3.0, 8.0])
    power = np.abs(fractional_spectrum(MEX, order, sc.vectors.ravel()[:, None] * xi[None, :])) ** 2
    want = np.tensordot(sc.log_measure_weights(), power, axes=1)
    assert np.array_equal(truncated_coverage(MEX, order, sc, xi), want)


def test_tap_spectra_are_cached_read_only(grid, scales_wide, gabor):
    first = cfrwt_fast(gabor, DOG3, ALPHA, scales_wide).values
    before = cfrwt_module._tap_spectrum.cache_info()
    again = cfrwt_fast(gabor, DOG3, ALPHA, scales_wide).values
    after = cfrwt_module._tap_spectrum.cache_info()
    assert np.array_equal(first, again)
    assert after.misses == before.misses and after.hits > before.hits
    a_col = scales_wide.vectors[:, 0].tobytes()
    taps = cfrwt_module._tap_spectrum(DOG3, True, grid.axes[0].step, grid.axes[0].count, a_col)
    assert not taps.flags.writeable
    assert after.currsize <= after.maxsize


def test_inner_product_relation_two_wavelets(grid, scales_wide, gabor):
    g2 = sample(grid, lambda t: np.exp(-((t + 0.3) ** 2) / (2 * 0.35**2)) * np.exp(2.5j * t))
    rep = inner_product_relation_check(gabor, g2, MEX, DOG4, ALPHA, scales_wide)
    assert rep.passed
    assert rep.ratio < 0.03


def test_inner_product_relation_orthogonal_pair(grid, scales_wide):
    even = sample(grid, lambda t: np.exp(-(t**2) / (2 * 0.5**2)))
    odd = sample(grid, lambda t: t * np.exp(-(t**2) / (2 * 0.5**2)))
    rep = inner_product_relation_check(even, odd, MEX, MEX, ALPHA, scales_wide)
    # Both sides are near zero; the normalized deviation stays tiny.
    assert rep.ratio < 1e-3


def test_self_pairing_matches_plancherel(gabor, gabor_coeffs, scales_wide):
    rep = inner_product_relation_check(gabor, gabor, MEX, MEX, ALPHA, scales_wide)
    ratio = rep.lhs / rep.rhs
    plancherel = plancherel_check(gabor_coeffs, gabor, MEX).ratio
    assert abs(ratio.imag) < 1e-12
    assert ratio.real == pytest.approx(plancherel, abs=1e-12)


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
    xi = spec.grid.axis_points()[0]
    kappa = truncated_coverage(MEX, order, scales_wide, xi)
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
    g = Grid(axes)
    f = sample(g, lambda *t: np.exp(-sum((x - 0.3) ** 2 for x in t)) * np.exp(2j * t[0]))
    sc = log_scale_grid(2.0**-2, 2.0**2, a_count, ndim=g.ndim, signs="both")
    chunks = cfrwt_module._scale_chunks(g, sc.count)
    if g.ndim == 2:
        # several chunks, the last one short
        assert len(chunks) > 1 and chunks[-1].stop - chunks[-1].start < chunks[0].stop
    # complex, asymmetric profiles: with an even analysis wavelet the
    # coefficients at a and -a coincide and would hide a lag-sign slip
    w = cfrwt_fast(f, MOR, ALPHA, sc)
    fast = reconstruct(w, MOR, MOR, cross_value=CROSS)
    brute = brute_reconstruct(w, MOR.profile, CROSS)
    assert relative_peak_error(fast.values, brute) < 1e-12


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
    with pytest.raises(ValueError, match="mexican_hat"):
        reconstruct(gabor_coeffs, MEX, DOG4)


def test_reconstruct_rejects_vanishing_cross_constant(gabor_coeffs):
    # Mexican hat and dog3 have spectra of opposite parity: the cross
    # constant cancels and no synthesis normalization exists.
    with pytest.raises(ZeroCrossAdmissibility):
        reconstruct(gabor_coeffs, DOG3, MEX)


# -------------------------------------------------------- reproducing kernel


def test_reproducing_kernel_diagonal(grid):
    p0 = ((0.5,), (1.0,))
    k = reproducing_kernel(MEX, MEX, ALPHA, p0, p0, grid)
    assert abs(k.value.imag) <= 1e-10 * abs(k.value.real)
    assert k.value.real == pytest.approx(KERNEL_DIAG, rel=1e-10)


def test_reproducing_kernel_conjugate_symmetry(grid):
    p = ((0.5,), (1.0,))
    q = ((-0.25,), (2.0,))
    kpq = reproducing_kernel(MEX, MEX, ALPHA, p, q, grid)
    kqp = reproducing_kernel(MEX, MEX, ALPHA, q, p, grid)
    assert kpq.value == pytest.approx(np.conj(kqp.value), rel=1e-10)


def test_reproducing_kernel_decays_with_separation(grid):
    diag = reproducing_kernel(MEX, MEX, ALPHA, ((0.5,), (1.0,)), ((0.5,), (1.0,)), grid)
    far = reproducing_kernel(MEX, MEX, ALPHA, ((-4.0,), (0.5,)), ((4.0,), (0.5,)), grid)
    assert abs(far.value) < 1e-3 * abs(diag.value)


def test_kernel_projection_consistency(gabor_coeffs, scales_wide, grid):
    # Projecting a genuine coefficient array through the kernel returns the
    # coefficient at the probe point.
    idx = np.unravel_index(np.argmax(np.abs(gabor_coeffs.values)), gabor_coeffs.values.shape)
    s_vec = tuple(scales_wide.vectors[idx[0]])
    b_pt = (grid.axis_points()[0][idx[1]],)
    proj = kernel_projection(gabor_coeffs, MEX, MEX, (b_pt, s_vec))
    direct = gabor_coeffs.values[idx]
    assert abs(proj - direct) / abs(direct) < 0.05


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
        assert range_membership_residual(w, MEX, MEX) < 0.05

    template = cfrwt_fast(
        sample(grid, lambda t: np.exp(-(t**2) / (2 * 0.45**2)) * np.exp(4j * t)),
        MEX,
        ALPHA,
        scales_wide,
    )
    for seed in range(100, 105):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(template.values.shape) + 1j * rng.standard_normal(
            template.values.shape
        )
        fake = CfrwtCoefficients(
            raw, template.b_grid, template.scales, template.order, template.wavelet
        )
        assert range_membership_residual(fake, MEX, MEX) >= 0.20
