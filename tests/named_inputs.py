"""Named inputs of the bit-pin tests: grids with their log_scale_grid
ranges, the signals sampled on them and the non-catalog wavelet.

test_cfrwt.py and test_frft.py parametrize over these names, and
test_properties.py runs the same inputs as explicit examples, so a pinned
example and the family it extends read one table.
"""

from __future__ import annotations

import numpy as np

from frwt.grid import AxisSpec, Grid, SampledSignal, axis_centered, sample
from frwt.scales import ScaleGrid, log_scale_grid
from frwt.verify import _fixture as random_smooth_signal
from frwt.wavelets import CATALOG, WaveletSpec

# the axes and log_scale_grid (a_min, a_max, cells) of each named grid;
# start+0 and start-0 are equal grids, hash and all, whose phases differ
# in the signs of zeros
GRIDS = {
    "1d-101": ((AxisSpec(-5.0, 0.1, 101),), (2.0**-3, 2.0**3, 24)),
    "1d-256": ((axis_centered(0.0625, 256),), (2.0**-4, 2.0**4, 64)),
    "1d-4096": ((axis_centered(1 / 16, 4096),), (0.5, 2.0, 2)),
    "2d-30x27": ((axis_centered(0.4, 30), AxisSpec(-4.0, 0.35, 27)), (0.5, 4.0, 3)),
    "2d-30x27-centred": ((axis_centered(0.25, 30), axis_centered(0.2, 27)), (0.5, 4.0, 3)),
    "2d-64x63": ((axis_centered(0.1, 64), axis_centered(0.15, 63)), (0.5, 2.0, 1)),
    "3d-12x9x7": ((axis_centered(0.5, 12), AxisSpec(-3.0, 0.6, 9), axis_centered(0.7, 7)), (0.5, 2.0, 2)),
    "start+0": ((AxisSpec(0.0, 0.1, 64),), (2.0**-3, 2.0**3, 12)),
    "start-0": ((AxisSpec(-0.0, 0.1, 64),), (2.0**-3, 2.0**3, 12)),
}

# the perturbed profile of frwt.verify's Morrey distance record: neither
# even nor odd
_MEX, _DOG3 = CATALOG["mexican_hat"], CATALOG["dog3"]
PERTURBED = WaveletSpec(
    "mexhat_perturbed", lambda t: _MEX.profile(t) + 0.05 * _DOG3.profile(t), max(_MEX.support_radius, _DOG3.support_radius)
)


def named_grid(name: str) -> Grid:
    return Grid(GRIDS[name][0])


def named_scales(name: str, signs: str = "both", shuffled: bool = False) -> ScaleGrid:
    """The grid's log_scale_grid, or its rows in a fixed shuffled order."""
    axes, (a_min, a_max, cells) = GRIDS[name]
    sc = log_scale_grid(a_min, a_max, cells, ndim=len(axes), signs=signs)
    if not shuffled:
        return sc
    order = np.random.default_rng(sc.count).permutation(sc.count)
    return ScaleGrid(sc.vectors[order], sc.log_step, sc.a_min, sc.a_max, sc.signs)


def twin_signal(grid: Grid) -> SampledSignal:
    """An off-centre Gaussian under a plane wave: the twin tests' input."""
    return sample(grid, lambda *t: np.exp(-sum((x - 0.3) ** 2 for x in t)) * np.exp(1j * (t[0] - 2 * t[-1])))


def gabor_signal(grid: Grid) -> SampledSignal:
    """A 1-D Gabor atom whose coefficient rows hold exact zeros on 1d-256."""
    return sample(grid, lambda t: np.exp(-((t - 0.5) ** 2) / (2 * 0.4**2)) * np.exp(3j * t))


def smooth_signals(grid: Grid, count: int) -> list[SampledSignal]:
    """frwt.verify's seeded fixtures 0 to count - 1, every fifth sample -0.0."""
    family = [random_smooth_signal(grid, seed=seed) for seed in range(count)]
    for f in family:
        f.values.reshape(-1)[::5] = -0.0
    return family


def twin_inputs(name: str, signs: str = "both", shuffled: bool = False) -> tuple[SampledSignal, ScaleGrid]:
    return twin_signal(named_grid(name)), named_scales(name, signs, shuffled)
