"""Mother wavelet catalog and chirped daughter construction.

Mother wavelets are stored as 1-D profiles; in higher dimensions a wavelet
acts as the separable product of its profile along each axis.  A daughter
at scale vector a, position b and transform order alpha is

    |a|_p^(-1/2) psi((t - b) / a) exp(-i/2 (|t|^2 - |b|^2) cot(alpha))

with |a|_p the product of the |a_i|.  Scale components may take either
sign; zero components are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridTooSmall, ZeroScaleComponent
from .frft import TransformOrder, _as_order, _chirp
from .grid import Grid, SampledSignal, _separable

__all__ = [
    "WaveletSpec",
    "CATALOG",
    "get_wavelet",
    "make_daughter",
    "wavelet_l1_norm",
    "wavelet_l2_norm",
]

# quadrature resolution for the 1-D profile integrals
_PROFILE_POINTS = 8192

MORLET_OMEGA0 = 5.0


@dataclass(frozen=True)
class WaveletSpec:
    """A named 1-D mother wavelet profile."""

    name: str
    profile: Callable[[np.ndarray], np.ndarray]
    support_radius: float


def _mexican_hat(t: np.ndarray) -> np.ndarray:
    return (1.0 - t**2) * np.exp(-(t**2) / 2)


def _gaussian(t: np.ndarray) -> np.ndarray:
    return np.exp(-(t**2) / 2)


def _morlet(t: np.ndarray) -> np.ndarray:
    # zero-mean corrected complex Morlet
    w0 = MORLET_OMEGA0
    return math.pi**-0.25 * (np.exp(1j * w0 * t) - math.exp(-(w0**2) / 2)) * np.exp(-(t**2) / 2)


def _dog_profile(m: int) -> Callable[[np.ndarray], np.ndarray]:
    # m-th derivative of exp(-t^2/2): (-1)^m He_m(t) exp(-t^2/2)
    coeffs = [0.0] * m + [1.0]

    def profile(t: np.ndarray) -> np.ndarray:
        return (-1.0) ** m * np.polynomial.hermite_e.hermeval(t, coeffs) * np.exp(-(t**2) / 2)

    return profile


CATALOG: dict[str, WaveletSpec] = {
    "mexican_hat": WaveletSpec("mexican_hat", _mexican_hat, support_radius=8.0),
    "morlet": WaveletSpec("morlet", _morlet, support_radius=8.0),
    # inadmissible on purpose: nonzero mean, so the admissibility
    # integral diverges logarithmically at the origin
    "gaussian": WaveletSpec("gaussian", _gaussian, support_radius=7.0),
    "dog1": WaveletSpec("dog1", _dog_profile(1), support_radius=8.0),
    "dog3": WaveletSpec("dog3", _dog_profile(3), support_radius=9.0),
    "dog4": WaveletSpec("dog4", _dog_profile(4), support_radius=9.0),
}


def get_wavelet(name: str) -> WaveletSpec:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown wavelet {name!r}; available: {', '.join(sorted(CATALOG))}"
        ) from None


def _profile_quadrature(psi: WaveletSpec, points: int = _PROFILE_POINTS) -> tuple[np.ndarray, np.ndarray, float]:
    r = psi.support_radius
    t = np.linspace(-r, r, points)
    vals = np.asarray(psi.profile(t), dtype=np.complex128)
    return t, vals, t[1] - t[0]


def wavelet_l1_norm(psi: WaveletSpec) -> float:
    t, vals, dt = _profile_quadrature(psi)
    return float(np.trapezoid(np.abs(vals), dx=dt))


def wavelet_l2_norm(psi: WaveletSpec) -> float:
    t, vals, dt = _profile_quadrature(psi)
    return float(math.sqrt(np.trapezoid(np.abs(vals) ** 2, dx=dt)))


def _mass_outside_fraction(psi: WaveletSpec, a: float, b: float, lo: float, hi: float) -> float:
    """Fraction of the squared profile mass of psi((x-b)/a) outside [lo, hi]."""
    t, vals, dt = _profile_quadrature(psi)
    density = np.abs(vals) ** 2
    total = np.trapezoid(density, dx=dt)
    u_lo, u_hi = sorted(((lo - b) / a, (hi - b) / a))
    inside = (t >= u_lo) & (t <= u_hi)
    if not np.any(inside):
        return 1.0
    kept = np.trapezoid(density[inside], dx=dt)
    return float(max(0.0, 1.0 - kept / total))


def make_daughter(
    psi: WaveletSpec,
    a: tuple[float, ...],
    b: tuple[float, ...],
    order: TransformOrder | float,
    grid: Grid,
    tail_tol: float | None = 1e-6,
) -> SampledSignal:
    """Sample the daughter at scale vector a and position vector b on a grid.

    With tail_tol set, raises GridTooSmall when more than that fraction of
    the daughter's squared mass falls outside the grid along any axis.
    Pass tail_tol=None to skip the check (coefficient loops do this: a
    clipped daughter against a decaying signal is still a valid inner
    product).
    """
    order = _as_order(order)
    if len(a) != grid.ndim or len(b) != grid.ndim:
        raise ValueError("parameter dimensions do not match the grid")
    for a_i in a:
        if a_i == 0.0 or not math.isfinite(a_i):
            raise ZeroScaleComponent(f"scale component {a_i} is not usable")

    if tail_tol is not None:
        for ax, a_i, b_i in zip(grid.axes, a, b):
            spill = _mass_outside_fraction(psi, a_i, b_i, ax.start, ax.stop)
            if spill > tail_tol:
                raise GridTooSmall(
                    f"daughter at a={a} b={b} spills {spill:.2e} of its "
                    f"mass past the grid edge (tolerance {tail_tol:.1e})"
                )

    cot = order.cot
    a_abs = float(np.prod([abs(a_i) for a_i in a]))
    envelope = _separable(
        [psi.profile((pts - b_i) / a_i) for pts, a_i, b_i in zip(grid.axis_points(), a, b)], np.multiply
    )
    b_sq = sum(b_i * b_i for b_i in b)
    chirp = _chirp(grid.radius_sq() - b_sq, -cot)
    return SampledSignal(grid, envelope * chirp / math.sqrt(a_abs))
