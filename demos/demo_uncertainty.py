"""
How concentrated can a signal be in two rotated domains at once?
================================================================

Dispersion measured in two fractional domains obeys a floor fixed by
the angle between them.  A unit Gaussian meets the floor exactly when
the domains are a quarter turn apart; everything else sits above it.
The same floor constrains wavelet coefficient fields, and restricting
to small balls yields a sharper, radius-dependent statement.
"""

import math

import numpy as np

from frwt import (
    Grid,
    axis_centered,
    cfrwt_fast,
    dispersion,
    get_wavelet,
    heisenberg_cfrwt,
    heisenberg_two_domain,
    local_uncertainty_scan,
    log_scale_grid,
    sample,
)

HALF_PI = math.pi / 2
grid = Grid((axis_centered(1 / 16, 256),))

# the extremal case: a unit gaussian between time (order 0) and
# frequency (order pi/2); both sides of the inequality equal pi/4
gauss = sample(grid, lambda t: np.exp(-(t**2) / 2))
rep = heisenberg_two_domain(gauss, HALF_PI, 0.0)
print(f"gaussian, domains a quarter turn apart:")
print(f"  product of dispersions {rep.lhs:.10f}")
print(f"  floor                  {rep.rhs:.10f}")
print(f"  ratio                  {rep.ratio:.10f}   (pi/4 = {math.pi / 4:.10f})")

# modulation leaves the floor but raises the product: a carrier shifts
# mass away from the frequency origin without narrowing anything
for carrier in (0.0, 1.0, 2.0):
    mod = sample(grid, lambda t: np.exp(-(t**2) / 2) * np.exp(1j * carrier * t))
    r = heisenberg_two_domain(mod, HALF_PI, 0.0)
    print(f"carrier {carrier:3.1f}: ratio above floor {r.ratio:8.3f}")

# oblique domain pairs: the floor scales with sin^2 of the angle gap
f = sample(grid, lambda t: np.exp(-((t - 0.5) ** 2) / (2 * 0.4**2)) * np.exp(3j * t))
print("\nangle gap   floor      measured product")
for beta in (0.3, 0.8, 1.2):
    r = heisenberg_two_domain(f, 1.4, 1.4 - beta)
    print(f"{beta:6.2f}   {r.rhs:10.4f}  {r.lhs:10.4f}")

# the coefficient-field version: scale-integrated moments of the
# wavelet transform obey the same kind of floor after normalizing by
# the measured spectral-moment constant
scales = log_scale_grid(2**-4, 2**4, 64, signs="both")
mex = get_wavelet("mexican_hat")
cr = heisenberg_cfrwt(cfrwt_fast(f, mex, 0.9, scales), f, 0.9 - HALF_PI)
print(f"\ncoefficient-field floor: normalized ratio {cr.ratio:.1f} >= 1")

# local version: energy a signal family can pack into a ball of radius r
# decays no faster than r^(2 theta) as r -> 0; dilated gaussians with
# width matched to the ball saturate the envelope
wide = Grid((axis_centered(1 / 16, 2048),))
family = [
    sample(wide, lambda t, s=float(s): s**-0.5 * np.exp(-((t / s) ** 2) / 2))
    for s in np.exp2(np.linspace(-3, 3, 13))
]
balls = [((0.0,), float(r)) for r in np.exp2(np.linspace(-3, 2, 11))]
for theta in (0.25, 0.4):
    scan = local_uncertainty_scan(family, HALF_PI, 0.0, theta, balls)
    print(f"theta={theta}: envelope slope {scan.envelope_slope:.3f} "
          f"(saturation predicts {2 * theta:.2f}), "
          f"sharp constant estimate {scan.a_hat:.3f}")

# dispersion itself, for reference: second moment of a unit gaussian
print(f"\ngaussian dispersion (theta=1): {dispersion(gauss, 1.0):.10f} "
      f"= sqrt(pi)/2 = {math.sqrt(math.pi) / 2:.10f}")
