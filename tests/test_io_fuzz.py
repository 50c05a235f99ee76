"""Byte-mutation fuzzing of the binary signal and coefficient files.

Every mutated file must either go through the command (exit 0) or be
refused as malformed (exit 2); no other code and no uncaught exception.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frwt import cfrwt_fast, get_wavelet, log_scale_grid, write_coefficients, write_signal
from frwt.cli import main
from frwt.grid import Grid, axis_centered, sample


FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module", params=[1, 2], ids=["1d", "2d"])
def files(request, tmp_path_factory):
    ndim = request.param
    root = tmp_path_factory.mktemp(f"fuzz{ndim}d")
    grid = Grid((axis_centered(0.25, 32), axis_centered(0.5, 6))[:ndim])
    f = sample(grid, lambda *t: np.exp(-sum(x**2 for x in t)) * np.exp(2j * t[0]))
    config = root / "run.cfg"
    config.write_text("a_min = 0.5\na_max = 2\na_count = 2\n")
    signal = root / "in.sig"
    write_signal(signal, f)
    scales = log_scale_grid(0.5, 2.0, 2, ndim=ndim, signs="both")
    coeffs = root / "in.coef"
    write_coefficients(coeffs, cfrwt_fast(f, get_wavelet("mexican_hat"), 0.9, scales))
    payload = 16 * scales.count * grid.size  # the header is everything before it
    return {
        "root": root,
        "config": config,
        "signal": (signal.read_bytes(), 16 * grid.size),
        "coeffs": (coeffs.read_bytes(), payload),
    }


def _mutations(size: int, payload: int):
    header = size - payload
    position = st.one_of(st.integers(0, header - 1), st.integers(header, size - 1))
    return st.lists(st.tuples(position, st.integers(0, 255)), min_size=1, max_size=4)


def _mutate(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for pos, byte in edits:
        out[pos] = byte
    return bytes(out)


@FUZZ
@given(data=st.data())
def test_mutated_signal_file_exits_0_or_2(files, data, capsys):
    raw, payload = files["signal"]
    path = files["root"] / "mutated.sig"
    path.write_bytes(_mutate(raw, data.draw(_mutations(len(raw), payload))))
    rc = main(["cfrwt", str(path), "--config", str(files["config"]), "--output", str(files["root"] / "out.coef")])
    assert rc in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


@FUZZ
@given(data=st.data())
def test_mutated_coefficient_file_exits_0_or_2(files, data, capsys):
    raw, payload = files["coeffs"]
    path = files["root"] / "mutated.coef"
    path.write_bytes(_mutate(raw, data.draw(_mutations(len(raw), payload))))
    rc = main(["synth", str(path), "--config", str(files["config"]), "--output", str(files["root"] / "out.sig")])
    assert rc in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
