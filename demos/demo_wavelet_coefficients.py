"""
Wavelet coefficients in a rotated time-frequency domain
=======================================================

A two-component signal is separated by scale, the coefficient energy is
compared against the signal energy (the transform is an isometry up to
the admissibility normalizer), and the signal is rebuilt from its
coefficients.
"""

import numpy as np

from frwt import (
    Grid,
    SampledSignal,
    admissibility_constant,
    axis_centered,
    cfrwt_fast,
    get_wavelet,
    l2_norm,
    log_scale_grid,
    plancherel_check,
    reconstruct,
    sample,
)

grid = Grid((axis_centered(1 / 16, 256),))
alpha = 0.9

# slow wide oscillation on the left, fast narrow wiggle on the right
f = sample(
    grid,
    lambda t: np.exp(-((t + 2.0) ** 2) / (2 * 1.2**2)) * np.exp(-2j * t)
    + np.exp(-((t - 2.0) ** 2) / (2 * 0.25**2)) * np.exp(8j * t),
)

# the analyzing wavelet must have a finite admissibility constant
mex = get_wavelet("mexican_hat")
adm = admissibility_constant(mex, alpha)
print(f"mexican hat admissibility at order {alpha}: "
      f"{adm.value.real:.4f} ({adm.verdict})")

# a plain gaussian has nonzero mean, so its constant diverges at the origin
bad = admissibility_constant(get_wavelet("gaussian"), alpha)
print(f"gaussian:  {bad.verdict}, trace tail "
      f"{[round(v, 2) for _, v in bad.trace[-3:]]}")

scales = log_scale_grid(2**-4, 2**4, 64, signs="both")
coeffs = cfrwt_fast(f, mex, alpha, scales)
print(f"\ncoefficient field: {coeffs.values.shape[0]} scales x "
      f"{coeffs.values.shape[1]} shifts")

# energy per octave of scale magnitude: the two components light up
# different scale bands
mags = np.abs(coeffs.scales.vectors[:, 0])
energies = (np.abs(coeffs.values) ** 2).sum(axis=1) * coeffs.scales.measure_weights()
print("\n|a| octave        share of coefficient energy")
total = energies.sum()
for lo in (0.0625, 0.25, 1.0, 4.0):
    band = (mags >= lo) & (mags < 4 * lo)
    print(f"[{lo:7.4f}, {4 * lo:7.4f})   {energies[band].sum() / total:6.1%}")

# the weighted coefficient energy reproduces the signal energy
rep = plancherel_check(coeffs, f)
print(f"\nenergy ratio (coefficients vs signal): {rep.ratio:.4f}")

# why not exactly one: a finite scale window covers each frequency only
# partially; the shortfall is largest at frequencies below 1/a_max.  The
# coverage is taken on a uniform frequency grid, here of step 0.05
from frwt import axis_linspace, truncated_coverage

freqs = Grid((axis_linspace(0.05, 8.0, 160),))
cov = truncated_coverage(mex, alpha, scales, freqs)
picks = [0, 59, 159]
print("coverage of the scale window at frequency "
      + " / ".join(f"{xi:g}" for xi in freqs.axis_points()[0][picks]) + ": "
      + " / ".join(f"{c / adm.value.real:.2f}" for c in cov[picks]))

# rebuild the signal; the same wavelet synthesizes, a different one
# (fourth derivative of a gaussian) works through its cross constant
recon = reconstruct(coeffs, mex, mex)
err = l2_norm(SampledSignal(grid, recon.values - f.values)) / l2_norm(f)
print(f"reconstruction error, same wavelet: {err:.3f}")

recon2 = reconstruct(coeffs, get_wavelet("dog4"), mex)
err2 = l2_norm(SampledSignal(grid, recon2.values - f.values)) / l2_norm(f)
print(f"reconstruction error, two-wavelet:  {err2:.3f}")
