"""Fuzzing of every file the commands read.

Every byte-mutated binary signal or coefficient file must either go
through the command (exit 0) or be refused as malformed (exit 2); no
other code and no uncaught exception.  Every config or CSV text, arbitrary
bytes or key=value lines and rows of edge values, must either parse or
raise SignalFileError or InputFileError on one line, without a warning.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frwt import cfrwt_fast, get_wavelet, log_scale_grid, parse_run_config, read_csv, write_coefficients, write_signal
from frwt.cli import main
from frwt.errors import InputFileError, SignalFileError
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


# ---------------------------------------------------------------------------
# text files

# README's config keys, and values at the edges of what a parser must refuse
TEXT_FUZZ = settings(FUZZ, max_examples=200)

_KEYS = ["alpha", "beta", "wavelet", "a_min", "a_max", "a_count", "u_min", "u_max", "nu", "tolerance", "threads"]
_EDGES = [
    b"inf", b"-inf", b"nan", b"1e300", b"-1e300", b"1e-300", b"-1e-300", b"5e-324", b"", b"\x00", b"1\x00",
    b"\xff", b"\xc3", b"0", b"-1", b"4097", b"99999999999999999999", b"mexican_hat", b"0.0625", b"16",
]
_VALUES = st.one_of(st.sampled_from(_EDGES), st.floats().map(lambda x: repr(x).encode()), st.binary(max_size=6))


def _text_file(root, raw: bytes):
    path = root / "fuzz.txt"
    path.write_bytes(raw)
    return path


def _parses_or_refuses(read, path) -> None:
    """read(path) returns, or raises a file error whose message is one
    line; it warns about nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            read(path)
        except (SignalFileError, InputFileError) as exc:
            assert "\n" not in str(exc)
    assert not caught, [str(w.message) for w in caught]


_config_lines = st.lists(
    st.tuples(st.sampled_from(_KEYS), _VALUES).map(lambda kv: kv[0].encode() + b" = " + kv[1]), max_size=5
).map(b"\n".join)


@TEXT_FUZZ
@given(raw=st.one_of(st.binary(max_size=64), _config_lines))
def test_a_config_text_parses_or_is_refused(tmp_path, raw):
    _parses_or_refuses(parse_run_config, _text_file(tmp_path, raw))


_csv_rows = st.tuples(
    st.sampled_from([b"t1,re,im", b"t1,t2,re,im", b"t,re,im", b"re,im", b""]),
    st.lists(st.lists(_VALUES, min_size=1, max_size=5).map(b",".join), max_size=6),
).map(lambda hr: b"\n".join([hr[0], *hr[1]]))


@TEXT_FUZZ
@given(raw=st.one_of(st.binary(max_size=64), _csv_rows))
def test_a_csv_text_parses_or_is_refused(tmp_path, raw):
    _parses_or_refuses(read_csv, _text_file(tmp_path, raw))
