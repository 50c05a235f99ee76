from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from frwt import admissibility
from frwt.admissibility import (
    FrequencyScan,
    admissibility_cache_info,
    admissibility_constant,
    cross_admissibility,
    fractional_spectrum,
)
from frwt.errors import DeltaKernel
from frwt.frft import TransformOrder, c_alpha
from frwt.wavelets import CATALOG, WaveletSpec, get_wavelet

from oracles import brute_admissibility, fine_grid_fractional_spectrum

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4

# Frozen closed forms (mpmath, 30 digits).  The classical Mexican hat
# constant is exactly 1; the fractional one scales by |csc alpha|.
SQRT_2 = 1.4142135623730951
SQRT_PI_HALF = 0.8862269254527580
TWO_LOG_2 = 1.3862943611198906

MEX = get_wavelet("mexican_hat")
DOG1 = get_wavelet("dog1")
DOG4 = get_wavelet("dog4")
GAUSS = get_wavelet("gaussian")


def test_fractional_spectrum_matches_classical_route():
    """At generic alpha the fractional spectrum factors through the classical
    transform of the profile: a chirp, a dilation by csc, and C_alpha."""
    order = TransformOrder(0.9)
    u = np.linspace(-6.0, 6.0, 121)
    got = fractional_spectrum(MEX, order, u)

    t = np.linspace(-8.0, 8.0, 8192)
    dt = t[1] - t[0]
    hat = (np.exp(-1j * np.outer(u * order.csc, t)) @ (MEX.profile(t) * dt)) / math.sqrt(
        2.0 * math.pi
    )
    expected = (
        (2.0 * math.pi) ** 0.5
        * c_alpha(order, 1)
        * np.exp(0.5j * order.cot * u**2)
        * hat
    )
    assert np.allclose(got, expected, rtol=0, atol=1e-10)


def test_mexican_hat_classical_constant():
    rep = admissibility_constant(MEX, HALF_PI)
    assert rep.verdict == "finite"
    assert rep.admissible
    assert abs(rep.value.imag) < 1e-12
    assert rep.value.real == pytest.approx(1.0, abs=1e-10)


def test_mexican_hat_quarter_pi_constant():
    rep = admissibility_constant(MEX, QUARTER_PI)
    assert rep.value.real == pytest.approx(SQRT_2, abs=1e-10)


def test_constant_scales_like_abs_csc():
    base = admissibility_constant(MEX, HALF_PI).value.real
    for alpha in (0.6, 1.1, 2.4):
        rep = admissibility_constant(MEX, alpha)
        assert rep.value.real == pytest.approx(base / abs(math.sin(alpha)), rel=1e-12)


def test_quarter_pi_against_double_quadrature():
    # Independent route: trapezoid FT plus adaptive quadrature in u.
    brute = brute_admissibility(MEX.profile, MEX.support_radius, QUARTER_PI)
    rep = admissibility_constant(MEX, QUARTER_PI)
    assert rep.value.real == pytest.approx(brute, rel=0.02)
    assert rep.value.real == pytest.approx(brute, rel=1e-5)


def test_dog4_constant():
    rep = admissibility_constant(DOG4, HALF_PI)
    assert rep.value.real == pytest.approx(6.0, rel=1e-9)


def test_cross_mexican_hat_dog4():
    # The report names the synthesis wavelet; the analyzing one goes in
    # cross_wavelet.
    rep = cross_admissibility(MEX, DOG4, HALF_PI)
    assert rep.wavelet == "dog4"
    assert rep.cross_wavelet == "mexican_hat"
    assert rep.value.real == pytest.approx(2.0, rel=1e-9)
    assert abs(rep.value.imag) < 1e-12
    assert rep.moduli_value == pytest.approx(2.0, rel=1e-9)


def test_cross_even_odd_cancels():
    """Mexican hat against dog1: spectra of opposite parity.  The signed
    integral vanishes while the moduli integral stays at sqrt(pi)/2."""
    rep = cross_admissibility(MEX, DOG1, HALF_PI)
    assert abs(rep.value) < 1e-10 * rep.moduli_value
    assert rep.moduli_value == pytest.approx(SQRT_PI_HALF, rel=1e-6)


def test_cross_negation_flips_sign():
    neg = WaveletSpec(name="neg", profile=lambda t: -MEX.profile(t), support_radius=8.0)
    rep = cross_admissibility(MEX, neg, HALF_PI)
    assert rep.value.real == pytest.approx(-1.0, rel=1e-9)
    assert rep.moduli_value == pytest.approx(1.0, rel=1e-9)


def test_global_phase_moves_to_cross_value():
    phased = WaveletSpec(
        name="phased", profile=lambda t: np.exp(0.7j) * MEX.profile(t), support_radius=8.0
    )
    rep = cross_admissibility(MEX, phased, HALF_PI)
    assert abs(rep.value) == pytest.approx(1.0, rel=1e-9)
    assert np.angle(rep.value) == pytest.approx(0.7, abs=1e-9)
    # ...but not the self constant, which only sees |Psi|^2.
    self_rep = admissibility_constant(phased, HALF_PI)
    assert self_rep.value.real == pytest.approx(1.0, rel=1e-9)


def test_amplitude_scaling_is_quadratic():
    doubled = WaveletSpec(name="x2", profile=lambda t: 2.0 * MEX.profile(t), support_radius=8.0)
    rep = admissibility_constant(doubled, 0.9)
    base = admissibility_constant(MEX, 0.9)
    assert rep.value.real == pytest.approx(4.0 * base.value.real, rel=1e-12)


def test_two_dimensional_constant_is_square():
    one = admissibility_constant(MEX, 1.3, ndim=1)
    two = admissibility_constant(MEX, 1.3, ndim=2)
    assert two.ndim == 2
    assert two.value == pytest.approx(one.value**2, rel=1e-12)
    assert two.moduli_value == pytest.approx(one.moduli_value**2, rel=1e-12)


def test_gaussian_is_divergent():
    rep = admissibility_constant(GAUSS, HALF_PI)
    assert rep.verdict == "divergent"
    assert not rep.admissible
    # A flat spectrum at the origin gains 2 log 2 per halving of the cutoff.
    increments = np.diff([v for _, v in rep.trace])
    assert increments[-1] == pytest.approx(TWO_LOG_2, abs=1e-3)


def test_morlet_is_admissible_and_matches_spectrum_quadrature():
    rep = admissibility_constant(get_wavelet("morlet"), 1.0)
    assert rep.verdict == "finite"

    # Oracle from the cataloged closed-form spectrum on an independent grid.
    from scipy.integrate import quad

    morlet = get_wavelet("morlet")
    csc = 1.0 / math.sin(1.0)
    cot = math.cos(1.0) / math.sin(1.0)
    c_sq = abs(c_alpha(TransformOrder(1.0), 1)) ** 2

    def integrand(u: float) -> float:
        hat = morlet.spectrum(np.array([u * csc]))[0]
        return 2.0 * math.pi * c_sq * abs(hat) ** 2 / abs(u)

    total = 0.0
    for lo, hi in ((1e-8, 1.0), (1.0, 16.0)):
        for sgn in (1.0, -1.0):
            val, _ = quad(lambda u: integrand(sgn * u), lo, hi, limit=200)
            total += val
    assert rep.value.real == pytest.approx(total, rel=1e-4)


def test_trace_is_monotone_for_positive_integrand():
    # Each deeper cutoff adds a nonnegative slice.  For the Mexican hat the
    # added mass sits far below one ulp of the total, so only demand
    # monotonicity up to roundoff.
    rep = admissibility_constant(MEX, HALF_PI)
    vals = [v for _, v in rep.trace]
    total = vals[-1]
    assert all(b >= a - 1e-12 * total for a, b in zip(vals, vals[1:]))


def test_scan_validation():
    with pytest.raises(ValueError):
        FrequencyScan(points_per_decade=8)
    with pytest.raises(ValueError):
        FrequencyScan(halvings=2)
    with pytest.raises(ValueError):
        FrequencyScan(u_min=-1.0)
    with pytest.raises(ValueError):
        FrequencyScan(u_min=2.0, u_max=1.0)


def test_degenerate_order_rejected():
    with pytest.raises(DeltaKernel):
        admissibility_constant(MEX, 0.0)


# ------------------------------------------------ Nyquist-sized profile grid

FIVE_ORDERS = (0.4, 0.9, HALF_PI, 2.2, 2.9)
COARSE_SCAN = FrequencyScan(points_per_decade=16, halvings=3)


@pytest.mark.parametrize("alpha", FIVE_ORDERS)
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_nyquist_spectrum_matches_fine_grid(name, alpha, monkeypatch):
    """The Nyquist-sized grid against the fixed 8192-point route: spectrum
    values at 1e-12 relative, and scans with the same verdict."""
    psi = get_wavelet(name)
    u = np.concatenate([-np.geomspace(1e-6, 32.0, 150), np.geomspace(1e-6, 32.0, 150)])
    got = fractional_spectrum(psi, alpha, u)
    want = fine_grid_fractional_spectrum(psi, alpha, u)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    order = TransformOrder(alpha)
    signed, moduli, _ = admissibility._scan(psi, psi, order, COARSE_SCAN)
    monkeypatch.setattr(
        admissibility, "fractional_spectrum", lambda p, o, x: fine_grid_fractional_spectrum(p, o.alpha, x)
    )
    signed_fine, moduli_fine, _ = admissibility._scan(psi, psi, order, COARSE_SCAN)
    assert admissibility._verdict(moduli) == admissibility._verdict(moduli_fine)
    np.testing.assert_allclose(moduli, moduli_fine, rtol=1e-12, atol=0)
    np.testing.assert_allclose(signed, signed_fine, rtol=1e-12, atol=0)


@pytest.mark.parametrize("alpha", FIVE_ORDERS)
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_one_sided_scan_matches_two_sided(name, alpha, monkeypatch):
    """Real profiles take the negative side of the scan from the positive
    one; the scan matches one that evaluates both sides, and only morlet
    still calls fractional_spectrum twice."""
    psi = get_wavelet(name)
    order = TransformOrder(alpha)
    calls = []

    def counted(p, o, x):
        calls.append(x.size)
        return fractional_spectrum(p, o, x)

    monkeypatch.setattr(admissibility, "fractional_spectrum", counted)
    signed, moduli, _ = admissibility._scan(psi, psi, order, COARSE_SCAN)
    assert len(calls) == (2 if name == "morlet" else 1)
    monkeypatch.setattr(
        admissibility, "_both_sides", lambda p, o, x: (fractional_spectrum(p, o, x), fractional_spectrum(p, o, -x))
    )
    signed_two, moduli_two, _ = admissibility._scan(psi, psi, order, COARSE_SCAN)
    assert admissibility._verdict(moduli) == admissibility._verdict(moduli_two)
    np.testing.assert_allclose(moduli, moduli_two, rtol=1e-14, atol=0)
    np.testing.assert_allclose(signed, signed_two, rtol=1e-14, atol=0)


def test_spectral_grid_size_follows_the_nyquist_bound():
    assert admissibility._spectral_points(MEX, 0.0) == 256
    assert admissibility._spectral_points(MEX, 32.0) == 2 * math.ceil(2 * 8.0 * 32.0 / math.pi) + 1
    assert admissibility._spectral_points(MEX, 1e6) == 8192


# ------------------------------------------------------------ report memo


def test_repeated_key_returns_the_same_report():
    first = cross_admissibility(MEX, DOG4, 0.7)
    before = admissibility_cache_info()
    again = cross_admissibility(MEX, DOG4, TransformOrder(0.7), scan=FrequencyScan(), ndim=1)
    after = admissibility_cache_info()
    assert again is first
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_equal_but_distinct_specs_keep_cross_wavelet():
    twin = dataclasses.replace(MEX)
    assert twin == MEX and twin is not MEX
    self_rep = admissibility_constant(MEX, 1.1)
    cross_rep = cross_admissibility(twin, MEX, 1.1)
    assert self_rep.cross_wavelet is None
    assert cross_rep.cross_wavelet == "mexican_hat"
    assert cross_rep is not self_rep
    assert cross_rep.value == self_rep.value
    assert cross_admissibility(twin, MEX, 1.1) is cross_rep


def test_memo_is_bounded_and_counts_misses():
    maxsize = admissibility_cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0
    before = admissibility_cache_info()
    scans = [FrequencyScan(u_max=8.0 + k, points_per_decade=16, halvings=3) for k in range(maxsize + 3)]
    for scan in scans:
        admissibility_constant(MEX, 0.8, scan=scan)
    after = admissibility_cache_info()
    assert after.misses == before.misses + maxsize + 3
    assert after.currsize == maxsize
    # the oldest key was evicted, the newest is still held
    hits = after.hits
    admissibility_constant(MEX, 0.8, scan=scans[-1])
    assert admissibility_cache_info().hits == hits + 1
    admissibility_constant(MEX, 0.8, scan=scans[0])
    assert admissibility_cache_info().misses == after.misses + 1
