"""Fuzzing of every file the commands read.

Every byte-mutated binary signal or coefficient file must either go
through the command (exit 0) or be refused as malformed (exit 2); no
other code and no uncaught exception.  Every config or CSV text, arbitrary
bytes or key=value lines and rows of edge values, must either parse or
raise SignalFileError or InputFileError on one line, without a warning.
The same config and CSV texts, run through `cfrwt`, `frft` and `verify
heisenberg`, end each command with an exit code README documents for a
command that did not stop on an unexpected error, and no traceback.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frwt import CATALOG, cfrwt_fast, get_wavelet, log_scale_grid, parse_run_config, read_csv, write_coefficients, write_signal
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


# ---------------------------------------------------------------------------
# the same texts through the commands

# an exit code README documents, other than 6 (an unexpected error: a
# precondition the parsers miss); 5 and 7 need an unknown suite or a
# closed stdout, which no example has
_COMMAND_CODES = (0, 1, 2, 3, 4)
COMMAND_FUZZ = settings(FUZZ, max_examples=40)


# values each key takes in a working config; hypothesis draws their edges
# (bounds, tiny and huge magnitudes, multiples of pi) often
_PLAUSIBLE = {
    "alpha": st.floats(-7.0, 7.0),
    "beta": st.floats(-7.0, 7.0),
    "wavelet": st.sampled_from(sorted(CATALOG) + ["nope"]),
    "a_min": st.floats(1e-150, 0.5),
    "a_max": st.floats(1.0, 1e3),
    "a_count": st.integers(1, 64),
    "u_min": st.floats(1e-300, 0.1),
    "u_max": st.floats(1.0, 1e3),
    "nu": st.floats(0.0, 2.0),
    "tolerance": st.floats(1e-6, 1.0),
    "threads": st.integers(1, 4),
}


def _as_float(raw: bytes) -> float:
    try:
        return float(raw.decode())
    except (UnicodeDecodeError, ValueError):
        return math.nan


def _command_value(key: str):
    """A value for key, mostly one a config may hold, that keeps one
    command cheap: a_count at most 64, and no a_min below 1e-150.  A
    finite a_min under about 1e-153 makes mexican_hat's taps overflow on
    these grids (NaN records, exit 1), an edge the config check does not
    refuse yet."""
    edges = _VALUES
    if key == "a_count":
        edges = st.sampled_from([b"", b"0", b"-1", b"nan", b"\xff", b"1.5"])
    elif key == "a_min":
        edges = _VALUES.filter(lambda raw: not 0.0 < _as_float(raw) < 1e-150)
    plausible = _PLAUSIBLE[key].map(lambda v: repr(v).encode())
    return st.one_of(plausible, plausible, plausible, edges)


_command_config = st.lists(
    st.sampled_from(_KEYS).flatmap(lambda key: _command_value(key).map(lambda raw: key.encode() + b" = " + raw)),
    max_size=4,
).map(b"\n".join)


def _csv_text(drawn) -> bytes:
    start, step, samples, edit, edge = drawn
    cells = [repr(x).encode() for k, (re, im) in enumerate(samples) for x in (start + k * step, re, im)]
    if edit < len(cells):
        cells[edit] = edge
    rows = [b",".join(cells[i : i + 3]) for i in range(0, len(cells), 3)]
    return b"\n".join([b"t1,re,im", *rows])


@pytest.fixture(scope="module")
def signal_32(tmp_path_factory):
    path = tmp_path_factory.mktemp("commands") / "in.sig"
    grid = Grid((axis_centered(0.25, 32),))
    write_signal(path, sample(grid, lambda t: np.exp(-(t**2)) * np.exp(2j * t)))
    return path


def _runs_to_a_documented_code(capsys, argv) -> None:
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in _COMMAND_CODES, err
    assert "Traceback" not in err


@COMMAND_FUZZ
@given(raw=_command_config)
def test_a_fuzzed_config_through_cfrwt_exits_with_a_documented_code(tmp_path, signal_32, capsys, raw):
    config = _text_file(tmp_path, raw)
    _runs_to_a_documented_code(capsys, ["cfrwt", str(signal_32), "--config", str(config), "--output", str(tmp_path / "w.coef")])


@COMMAND_FUZZ
@given(raw=_command_config)
def test_a_fuzzed_config_through_verify_heisenberg_exits_with_a_documented_code(tmp_path, capsys, raw):
    config = _text_file(tmp_path, raw)
    _runs_to_a_documented_code(capsys, ["verify", "heisenberg", "--config", str(config)])


# a uniform axis of finite samples, which the readers take, with at most
# one value swapped for an edge
_working_csv = st.tuples(
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 10.0),
    st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=40),
    st.integers(0, 80),
    st.sampled_from(_EDGES),
).map(_csv_text)


@COMMAND_FUZZ
@given(raw=st.one_of(st.binary(max_size=64), _csv_rows, _working_csv, _working_csv))
def test_a_fuzzed_csv_through_frft_exits_with_a_documented_code(tmp_path, capsys, raw):
    path = tmp_path / "in.csv"
    path.write_bytes(raw)
    _runs_to_a_documented_code(capsys, ["frft", str(path), "--alpha", "0.9", "--output", str(tmp_path / "out.sig")])


def _capped_command(*argv) -> subprocess.CompletedProcess:
    """`frwt ARGV` in a fresh process capped at 1 GiB of address space, so
    that a bound the parsers miss fails at once instead of building."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "frwt.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


@pytest.mark.parametrize(
    "command, text, code, stderr",
    [
        # the widest cheap scale range the fuzzer draws
        ("cfrwt", b"a_count = 64\na_min = 1e-150\na_max = 1e3\n", 0, []),
        ("heisenberg", b"alpha = 0\n", 3, ["degenerate order: ", "at multiples of pi "]),
        ("frft", b"t1,re,im\n0,1,0\n0.5,nan,0\n", 2, ["parse error: "]),
    ],
    ids=["cfrwt", "heisenberg", "frft"],
)
def test_a_fuzzed_text_exits_with_its_code_in_a_capped_process(tmp_path, signal_32, command, text, code, stderr):
    path = tmp_path / ("in.csv" if command == "frft" else "run.cfg")
    path.write_bytes(text)
    argv = {
        "cfrwt": ["cfrwt", str(signal_32), "--config", str(path), "--output", str(tmp_path / "w.coef")],
        "heisenberg": ["verify", "heisenberg", "--config", str(path)],
        "frft": ["frft", str(path), "--alpha", "0.9", "--output", str(tmp_path / "out.sig")],
    }[command]
    proc = _capped_command(*argv)
    assert proc.returncode == code, proc.stderr[-2000:]
    lines = proc.stderr.splitlines()
    assert len(lines) == len(stderr) and all(line.startswith(head) for line, head in zip(lines, stderr))
