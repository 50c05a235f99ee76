from __future__ import annotations

import numpy as np
import pytest

from frwt import verify
from frwt.grid import Grid, axis_centered, sample
from frwt.verify import _fixture as random_smooth_signal  # noqa: F401  (imported by test modules)


@pytest.fixture
def grid_256():
    """1-D grid on [-8, 8) with 256 points, step 1/16."""
    return Grid((axis_centered(0.0625, 256),))


@pytest.fixture
def gaussian_256(grid_256):
    return sample(grid_256, lambda t: np.exp(-(t**2) / 2))


def set_workers(monkeypatch, workers: int) -> None:
    """Run verify's job runner as on a host of `workers` CPUs."""
    monkeypatch.setattr(verify, "_WORKERS", workers)
