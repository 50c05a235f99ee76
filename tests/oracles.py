"""Reference computations used only by the test suite.

Two kinds.  The brute-force quadratures (brute_kernel_transform,
brute_admissibility, brute_classical_cwt, brute_reconstruct,
classical_unitary_ft, fine_grid_fractional_spectrum, dense_direct_apply)
and closed_form_spectrum avoid the package's optimized code paths:
brute_kernel_transform, for one, builds the full tensor-product kernel in
one shot instead of the library's per-axis contractions, so the two routes
share no intermediate structure.

The others rewrite a route the package took before one step of it changed,
with the same floating-point operations, so that equal bits show the step
moved none.  Several share the unchanged part with the package by design:

- per_vector_cfrwt shares cfrwt._chirped_input and cfrwt._axis_correlate;
- per_scale_reconstruct shares cfrwt._scale_correlate;
- per_vector_reconstruct shares cfrwt._chunk_plan, cfrwt._tap_layout,
  cfrwt._kernel, cfrwt._piece_spec and cfrwt._scale_correlate;
- per_signal_local_scan shares frft_fast and uncertainty.dispersion;
- chirp_fft_chirp reads the chirps and phases of a frft.make_plan plan.
"""

from __future__ import annotations

import math

import numpy as np

from frwt.cfrwt import _axis_correlate, _chirped_input, _chunk_plan, _kernel, _piece_spec, _scale_correlate, _tap_layout
from frwt.frft import _as_order, _chirp, _next_fast_len, c_alpha, frft_fast
from frwt.grid import Grid, SampledSignal, _exact_sum, _separable, l2_norm
from frwt.morrey import MorreyEstimate
from frwt.uncertainty import LocalEntry, _ball_measure, dispersion
from frwt.wavelets import MORLET_OMEGA0


def brute_kernel_transform(f: SampledSignal, alpha: float, output_grid: Grid) -> np.ndarray:
    """Full O((N^n)^2) quadrature of the chirp kernel integral."""
    n = f.ndim
    cot = np.cos(alpha) / np.sin(alpha)
    csc = 1.0 / np.sin(alpha)
    c = complex(np.sqrt((1.0 - 1j * cot) / (2.0 * np.pi))) ** n

    t_axes = f.grid.meshgrid()
    t_flat = np.stack([a.reshape(-1) for a in t_axes], axis=1)  # (P, n)
    xi_axes = output_grid.meshgrid()
    xi_flat = np.stack([a.reshape(-1) for a in xi_axes], axis=1)  # (Q, n)

    w = f.grid.weights().reshape(-1)
    vals = f.values.reshape(-1)

    tt = np.sum(t_flat**2, axis=1)
    xx = np.sum(xi_flat**2, axis=1)
    dots = xi_flat @ t_flat.T  # (Q, P)
    phase = 0.5 * (tt[None, :] + xx[:, None]) * cot - dots * csc
    out = (c * np.exp(1j * phase)) @ (w * vals)
    return out.reshape(output_grid.shape)


def classical_unitary_ft(f: SampledSignal, omega: np.ndarray) -> np.ndarray:
    """(2 pi)^(-1/2) * integral f(t) exp(-i t w) dt on a 1-D grid, by quadrature."""
    t = f.grid.axis_points()[0]
    w = f.grid.weights().reshape(-1)
    return (np.exp(-1j * np.outer(omega, t)) @ (w * f.values)) / np.sqrt(2.0 * np.pi)


def brute_admissibility(profile, support_radius: float, alpha: float) -> float:
    """Double-quadrature admissibility constant for a 1-D real-argument profile.

    Route: classical unitary FT of the profile by trapezoid sum, then the
    chirp-free closed algebra |Psi_alpha(u)|^2 = 2 pi |C_alpha|^2
    |psi_hat(u csc)|^2, integrated over u by adaptive quadrature.  Shares no
    code with the package's chunked fractional-kernel scan.
    """
    from scipy.integrate import quad

    csc = 1.0 / np.sin(alpha)
    cot = np.cos(alpha) / np.sin(alpha)
    c_sq = abs(complex(np.sqrt((1.0 - 1j * cot) / (2.0 * np.pi)))) ** 2

    n_t = 16384
    t = np.linspace(-support_radius, support_radius, n_t)
    dt = t[1] - t[0]
    vals = profile(t)

    def hat_sq(v: float) -> float:
        ft = np.sum(vals * np.exp(-1j * v * t)) * dt / np.sqrt(2.0 * np.pi)
        return abs(ft) ** 2

    def integrand(u: float) -> float:
        return 2.0 * np.pi * c_sq * hat_sq(u * csc) / abs(u)

    total = 0.0
    for lo, hi in ((1e-8, 1e-2), (1e-2, 1.0), (1.0, 64.0)):
        for sgn in (1.0, -1.0):
            val, _ = quad(lambda u: integrand(sgn * u), lo, hi, limit=200)
            total += val
    return total


def brute_classical_cwt(f: SampledSignal, profile, a: float, b_points: np.ndarray) -> np.ndarray:
    """Plain CWT inner products on a 1-D grid, one quadrature per shift."""
    t = f.grid.axis_points()[0]
    w = f.grid.weights().reshape(-1)
    out = np.empty(b_points.size, dtype=complex)
    for k, b in enumerate(b_points):
        out[k] = np.sum(w * f.values * np.conj(profile((t - b) / a))) / np.sqrt(abs(a))
    return out


def brute_reconstruct(coeffs, phi_profile, cross_value: complex) -> np.ndarray:
    """Two-wavelet synthesis sum with no FFT, one dense profile matrix per
    axis and scale vector:

        |c|^2 / C e^{-i|t|^2 cot/2} sum_a w_a |a|^{-1/2} sum_b w_b W(a, b) e^{i|b|^2 cot/2} prod_i phi((t_i - b_i) / a_i)

    The product kernel is separable, so the sum over b is one matrix
    phi((t_i - b_i) / a_i) applied along each axis i in turn.  |c|^2 =
    (2 pi |sin alpha|)^-n is written out here, not taken from the package.
    """
    grid = coeffs.b_grid
    alpha = coeffs.order.alpha
    cot = np.cos(alpha) / np.sin(alpha)
    mod = (2.0 * np.pi * abs(np.sin(alpha))) ** -grid.ndim

    axes = grid.axis_points()
    r2 = sum(np.meshgrid(*[p**2 for p in axes], indexing="ij"))
    chirp = np.exp(0.5j * cot * r2)
    w_a = coeffs.scales.measure_weights()
    total = np.zeros(grid.shape, dtype=complex)
    for s, a_vec in enumerate(coeffs.scales.vectors):
        acc = coeffs.values[s] * chirp
        for ax, (spec, pts, a_i) in enumerate(zip(grid.axes, axes, a_vec)):
            # [t_j, b_k], times the trapezoidal weight of b_k
            mat = phi_profile((pts[:, None] - pts[None, :]) / a_i) * spec.weights()
            acc = np.moveaxis(np.tensordot(mat, acc, axes=(1, ax)), 0, ax)
        total += w_a[s] / np.sqrt(np.prod(np.abs(a_vec))) * acc
    return mod / cross_value * np.conj(chirp) * total


def signed_tap_spectrum(psi, analysis: bool, axis, a: float) -> list:
    """The lag taps of one signed scale component a on one grid axis, taken
    from the profile at lags / a itself (no reversal of the +|a| row and no
    sharing between signs), and their FFT at the package's lag length, as
    the one piece _axis_correlate takes."""
    n = axis.count
    x = np.arange(-(n - 1), n)[None, :] * axis.step / a
    taps = np.conj(psi.profile(-x)) if analysis else psi.profile(x)
    return [(slice(0, 1), np.fft.fft(taps, n=_next_fast_len(2 * n - 1), axis=1))]


def per_vector_cfrwt(f: SampledSignal, psi, alpha: float, scales) -> np.ndarray:
    """Coefficients with every scale vector correlated on its own, axis by
    axis, against taps computed for its own signed components: the route
    cfrwt_fast took before it computed each distinct row once.  Shares the
    chirped input and the lag correlation with the package, not the tap
    tables, their row maps or the twin copies, so equal bits show that
    sharing rows changed no coefficient."""
    order = _as_order(alpha)
    grid = f.grid
    chi = _chirped_input(f, order)[None]
    out = np.empty((scales.count,) + grid.shape, dtype=complex)
    for s, a_vec in enumerate(scales.vectors):
        values = chi
        for ax, (axis, a) in enumerate(zip(grid.axes, a_vec)):
            values = _axis_correlate(values, ax, axis.count, signed_tap_spectrum(psi, True, axis, a), None)
        out[s] = values[0] / np.sqrt(np.prod(np.abs(a_vec)))
    out *= _chirp(grid.radius_sq(), -order.cot)
    return out


def per_scale_reconstruct(coeffs, phi, cross_value: complex) -> np.ndarray:
    """Synthesis by the time-domain scale sum that reconstruct replaced:
    every scale vector is correlated with its own synthesis taps along
    each axis and inverted on its own (_scale_correlate without a running
    spectrum), then the rows, each times its measure weight / sqrt|a|,
    are added in scale order.  Shares the lag correlation with the
    package, not the tap tables or the frequency-domain scale sum.
    """
    grid = coeffs.b_grid
    order = coeffs.order
    vectors = coeffs.scales.vectors
    chirped = coeffs.values * grid.weights() * _chirp(grid.radius_sq(), order.cot)
    factors = coeffs.scales.measure_weights() / np.sqrt(np.prod(np.abs(vectors), axis=1))
    total = np.zeros(grid.shape, dtype=complex)
    for s, a_vec in enumerate(vectors):
        kernels = [signed_tap_spectrum(phi, False, axis, a) for axis, a in zip(grid.axes, a_vec)]
        total += factors[s] * _scale_correlate(chirped[s : s + 1], grid, kernels, [None, None])[0]
    mod = abs(c_alpha(order, grid.ndim)) ** 2
    return total * (mod / cross_value * _chirp(grid.radius_sq(), -order.cot))


def per_vector_reconstruct(coeffs, phi, cross_value: complex) -> np.ndarray:
    """Synthesis with one product row per scale vector: the route
    reconstruct took before it convolved each distinct row of a chunk once
    and copied it to its twins.  Each chunk's coefficients, times the
    shift weights and b-chirp and then each row's measure weight /
    sqrt|a| (the two products reconstruct forms as it pads them), are
    correlated with the synthesis taps axis by axis and added in scale
    order onto one running spectrum, inverted at the end.  Shares the
    chunk plan, the tap tables and the lag correlation with the package,
    not the twin search, the weighting in the padding or the row copies,
    so equal bits show that sharing rows changed no sample."""
    grid = coeffs.b_grid
    order = coeffs.order
    vectors = coeffs.scales.vectors
    b_weights = grid.weights() * _chirp(grid.radius_sq(), order.cot)
    factors = coeffs.scales.measure_weights() / np.sqrt(np.prod(np.abs(vectors), axis=1))
    factors = factors.reshape((-1,) + (1,) * grid.ndim)
    chunks, work, pads = _chunk_plan(grid, coeffs.scales.count)
    taps = _tap_layout(phi, False, grid, pads, vectors)
    acc = np.zeros((1,) + grid.shape[:-1] + (pads[-1],), dtype=complex)
    for chunk in chunks:
        kernels = [_kernel(table, _piece_spec(rows[chunk])) for table, rows in taps]
        weighted = coeffs.values[chunk] * b_weights * factors[chunk]
        out = _scale_correlate(weighted, grid, kernels, work, (), acc, chunk is chunks[-1])
    mod = abs(c_alpha(order, grid.ndim)) ** 2
    # a name holds the chirp, as the memo holds reconstruct's: numpy reuses
    # an unnamed temporary of 256 KiB or more in place, with other roundings
    chirp = _chirp(grid.radius_sq(), -order.cot)
    return out[0] * (mod / cross_value * chirp)


def fine_grid_fractional_spectrum(psi, alpha: float, u: np.ndarray, points: int = 8192) -> np.ndarray:
    """Kernel quadrature of the chirped profile on a fixed 8192-point grid.

    The route fractional_spectrum took before its grid was sized from a
    Nyquist bound: both t-chirps are applied explicitly, the kernel matrix
    is built over the whole profile grid, and c(alpha) is written out.
    """
    cot = np.cos(alpha) / np.sin(alpha)
    csc = 1.0 / np.sin(alpha)
    c = complex(np.sqrt((1.0 - 1j * cot) / (2.0 * np.pi)))
    r = psi.support_radius
    t = np.linspace(-r, r, points)
    dt = t[1] - t[0]
    w = np.full(points, dt)
    w[0] = w[-1] = dt / 2
    chirped = w * psi.profile(t) * np.exp(-0.5j * cot * t**2) * np.exp(0.5j * cot * t**2)
    u = np.asarray(u, dtype=np.float64)
    out = np.array([np.exp(-1j * csc * row * t) @ chirped for row in u.reshape(-1)])
    return (c * np.exp(0.5j * cot * u.reshape(-1) ** 2) * out).reshape(u.shape)


def dense_direct_apply(values: np.ndarray, grid: Grid, alpha: float, axes_points) -> np.ndarray:
    """Per-axis kernel quadrature with each whole kernel matrix built at once.

    The direct route before it was built in row blocks, with the same
    elementwise expression and contraction, so the two agree bit for bit.
    """
    cot = math.cos(alpha) / math.sin(alpha)
    csc = 1.0 / math.sin(alpha)
    c1 = complex(np.sqrt((1.0 - 1j * cot) / (2.0 * math.pi)))
    out = values * grid.weights()
    for axis, ax in enumerate(grid.axes):
        t = ax.points()
        xi = np.asarray(axes_points[axis], dtype=np.float64)
        phase = 0.5 * (t[None, :] ** 2 + xi[:, None] ** 2) * cot - np.outer(xi, t) * csc
        kernel = c1 * np.exp(1j * phase)
        out = np.moveaxis(np.tensordot(kernel, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


def chirp_fft_chirp(values: np.ndarray, plan) -> np.ndarray:
    """The fast transform as frft._apply_plan first wrote it, from a fresh
    make_plan plan: weights and input chirp, then per axis fft (or ifft
    times the length), np.fft.fftshift and the phase, then output chirp
    and c_alpha, each a fresh product.  frft_fast equal to it bit for bit
    shows that the memoized weights, the in-place FFTs and the shift
    folded into the phase product move no bit."""
    grid = plan.input_grid
    ndim = grid.ndim
    v = values * grid.weights() * plan.in_chirp
    for k, ax in enumerate(grid.axes):
        axis = k - ndim
        if plan.order.sin_sign > 0:
            v = np.fft.fft(v, axis=axis)
        else:
            v = np.fft.ifft(v, axis=axis) * ax.count
        v = np.fft.fftshift(v, axes=axis)
        shape = [1] * ndim
        shape[k] = -1
        v = v * plan.axis_phases[k].reshape(shape)
    return v * plan.out_chirp * plan.c_alpha


def closed_form_spectrum(name: str):
    """Closed-form classical Fourier spectrum (unitary convention) of a
    catalog profile, as a function of the frequency."""
    w0 = MORLET_OMEGA0
    spectra = {
        "mexican_hat": lambda u: u**2 * np.exp(-(u**2) / 2),
        "morlet": lambda u: math.pi**-0.25
        * (np.exp(-((u - w0) ** 2) / 2) - math.exp(-(w0**2) / 2) * np.exp(-(u**2) / 2)),
        "gaussian": lambda u: np.exp(-(u**2) / 2),
    }
    for m in (1, 3, 4):
        spectra[f"dog{m}"] = lambda u, m=m: (1j * u) ** m * np.exp(-(u**2) / 2)
    return spectra[name]


def fftn_frac_convolve(f: SampledSignal, g: SampledSignal, alpha: float) -> np.ndarray:
    """Order-alpha convolution of f and g on f's grid by the whole formula:
    chirp and weigh f, multiply the fftn of both operands at
    _next_fast_len sizes of the full linear convolution, ifftn, crop,
    shift by g's whole-step offset and chirp back.

    The same floating-point operations as frac_convolve, written out in
    one place, so the two agree bit for bit.
    """
    from frwt.frft import _next_fast_len

    cot = math.cos(alpha) / math.sin(alpha)
    r2 = f.grid.radius_sq()
    u = f.values * np.exp(0.5j * cot * r2) * f.grid.weights()
    full_shape = [n + m - 1 for n, m in zip(f.grid.shape, g.grid.shape)]
    fast = [_next_fast_len(k) for k in full_shape]
    axes = tuple(range(f.ndim))
    spec = np.fft.fftn(u, fast, axes=axes) * np.fft.fftn(g.values, fast, axes=axes)
    full = np.fft.ifftn(spec, axes=axes)[tuple(slice(0, k) for k in full_shape)]
    out = np.zeros(f.grid.shape, dtype=np.complex128)
    for j in np.ndindex(*f.grid.shape):
        # result index j is full-convolution index j - l0 per axis
        k = tuple(ji - round(gx.start / fx.step) for ji, fx, gx in zip(j, f.grid.axes, g.grid.axes))
        if all(0 <= ki < n for ki, n in zip(k, full_shape)):
            out[j] = full[k]
    return out * np.exp(-0.5j * cot * r2)


def per_signal_local_scan(f_family, alpha: float, beta: float, theta: float, e_family):
    """The local uncertainty scan with two frft_fast calls (one plan each)
    and one dispersion per signal and every signal's norm computed, as
    the scan was written before it transformed and took the moments of
    the family in one batch.

    Returns (entries, a_hat, envelope_slope); the same floating-point
    operations as local_uncertainty_scan, so the two agree bit for bit.
    """
    n = f_family[0].grid.ndim
    s = math.sin(alpha - beta)
    branch = "subcritical" if theta < n / 2.0 else "supercritical"

    spectra = [frft_fast(f, alpha) for f in f_family]
    moments = [dispersion(frft_fast(f, beta), theta) for f in f_family]
    norms = [l2_norm(f) for f in f_family]

    out_grid = spectra[0].grid
    axes = out_grid.meshgrid()
    w = out_grid.weights()
    densities = [w * np.abs(spec.values) ** 2 for spec in spectra]

    entries = []
    for center, radius in e_family:
        d2 = sum((ax - c) ** 2 for ax, c in zip(axes, center))
        mask = d2 <= radius**2
        lam = _ball_measure(radius, n)
        best_ratio = 0.0
        best_env = 0.0
        for density, moment, norm in zip(densities, moments, norms):
            energy = _exact_sum(density[mask])
            if branch == "subcritical":
                env = energy * abs(s) ** (2.0 * theta) / moment
                ratio = env / lam ** (2.0 * theta / n)
            else:
                env = energy * abs(s) ** n / (norm ** (2.0 - n / theta) * moment ** (n / (2.0 * theta)))
                ratio = env / lam
            best_ratio = max(best_ratio, ratio)
            best_env = max(best_env, env)
        entries.append(LocalEntry(tuple(center), radius, lam, best_ratio, best_env))

    a_hat = max(e.ratio for e in entries)
    by_measure = sorted(entries, key=lambda e: e.measure)
    half = by_measure[: max(2, len(by_measure) // 2)]
    xs = np.log([e.measure for e in half])
    ys = np.log([max(e.envelope, 1e-300) for e in half])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return tuple(entries), a_hat, slope


def per_center_morrey_norm(f: SampledSignal, cfg) -> MorreyEstimate:
    """The Morrey scan as morrey_norm was written before it kept each
    scan's ball orders and formed the prefix sums of a block of centers
    at once: per center, a stable argsort of the distances, one cumsum
    and one searchsorted, and the first center whose best value is
    strictly larger than every earlier one's.  The same floating-point
    operations, so the two agree bit for bit."""
    axis_points = f.grid.axis_points()
    mass = (f.grid.weights() * np.abs(f.values)).ravel()
    radii = np.sort(np.asarray(cfg.radii, dtype=float))
    scale = radii ** (-cfg.nu)
    r2 = radii**2
    best_val = -1.0
    best_center = cfg.centers[0]
    best_radius = radii[0]
    for center in cfg.centers:
        d2 = _separable([(pts - c) ** 2 for pts, c in zip(axis_points, center)]).ravel()
        order = np.argsort(d2, kind="stable")
        prefix = np.concatenate(([0.0], np.cumsum(mass[order])))
        counts = np.searchsorted(d2[order], r2, side="right")
        vals = scale * prefix[counts]
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_center = tuple(float(c) for c in center)
            best_radius = float(radii[k])
    return MorreyEstimate(best_val, best_center, best_radius)
