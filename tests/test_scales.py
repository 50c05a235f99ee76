"""Scale grids: measure weights over the whole representable range."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from frwt.scales import ScaleGrid, log_scale_grid


def test_measure_weights_stay_finite_for_extreme_scales():
    # squaring 1e-170 underflows and squaring 1e160 overflows
    scales = ScaleGrid(np.array([[1e-170], [2.0], [1e160]]), 0.1, 1e-170, 1e160, "positive")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = scales.measure_weights()
    assert np.all(np.isfinite(weights))
    assert np.array_equal(weights, 0.1 / np.abs(scales.vectors[:, 0]))
    np.testing.assert_allclose(weights, [1e169, 0.05, 1e-161], rtol=1e-15)


def test_measure_weights_are_h_to_the_n_over_the_product_of_magnitudes():
    scales = log_scale_grid(0.3, 7.0, 5, ndim=3, signs="both")
    want = scales.log_step**3 / np.prod(np.abs(scales.vectors), axis=1)
    assert np.array_equal(scales.measure_weights(), want)


@pytest.mark.parametrize("a_min, a_max", [(1e-300, 1e300), (5e-324, 16.0)])
def test_an_overflowing_range_is_refused(a_min, a_max):
    # a_max / a_min is inf, so the log step would be too
    with pytest.raises(ValueError, match="a_max / a_min overflows"):
        log_scale_grid(a_min, a_max, 4)

