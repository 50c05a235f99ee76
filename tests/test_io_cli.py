"""File format round trips and command front-end behavior."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from frwt import (
    CfrwtCoefficients,
    RunConfig,
    SampledSignal,
    TransformOrder,
    cfrwt_fast,
    frft_fast,
    get_wavelet,
    log_scale_grid,
    parse_run_config,
    read_coefficients,
    read_csv,
    read_signal,
    write_coefficients,
    write_csv,
    write_signal,
)
from frwt.cli import main
from frwt.errors import SignalFileError
from frwt.grid import AxisSpec, Grid, axis_centered, sample

from conftest import random_smooth_signal


def _modulated(grid):
    return sample(grid, lambda t: np.exp(-(t**2) / (2 * 0.5**2)) * np.exp(5j * t))


# ---------------------------------------------------------------------------
# binary signal files


def test_signal_round_trip_is_byte_identical(tmp_path, grid_256):
    f = random_smooth_signal(grid_256, seed=7)
    first = tmp_path / "a.sig"
    second = tmp_path / "b.sig"
    write_signal(first, f)
    g = read_signal(first)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)
    write_signal(second, g)
    assert first.read_bytes() == second.read_bytes()


def test_signal_round_trip_2d(tmp_path):
    grid = Grid((axis_centered(0.5, 16), axis_centered(0.25, 8)))
    rng = np.random.default_rng(3)
    f = SampledSignal(grid, rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8)))
    path = tmp_path / "f.sig"
    write_signal(path, f)
    g = read_signal(path)
    assert g.grid == grid
    assert np.array_equal(g.values, f.values)


def test_bad_magic_names_file_and_offset(tmp_path, gaussian_256):
    path = tmp_path / "f.sig"
    write_signal(path, gaussian_256)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"WRNG"
    path.write_bytes(bytes(raw))
    with pytest.raises(SignalFileError, match="offset 0"):
        read_signal(path)
    with pytest.raises(SignalFileError, match="f.sig"):
        read_signal(path)


def test_truncated_payload_rejected(tmp_path, gaussian_256):
    path = tmp_path / "f.sig"
    write_signal(path, gaussian_256)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(SignalFileError, match="f.sig"):
        read_signal(path)


def _header_bytes(ndim, axes):
    import struct

    head = struct.pack("<4sHB", b"FRWT", 1, ndim)
    return head + b"".join(struct.pack("<ddI", *ax) for ax in axes)


def _payload(count, value=0.5):
    return np.full(2 * count, value, dtype="<f8").tobytes()


@pytest.mark.parametrize(
    "raw,fragment",
    [
        (_header_bytes(4, [(-1.0, 0.5, 4)] * 4) + _payload(256), "dimension 4"),
        (_header_bytes(1, [(-1.0, 0.5, 1)]) + _payload(1), "invalid axis"),
        (_header_bytes(1, [(-1.0, 0.5, 4)]) + _payload(4, np.nan), "non-finite"),
        (_header_bytes(1, [(-1.0, np.inf, 4)]) + _payload(4), "invalid axis"),
        (_header_bytes(1, [(1e200, 0.5, 4)]) + _payload(4), "invalid axis"),
        # 2^93 samples: a wrapping int64 product would expect 0 payload bytes
        (_header_bytes(3, [(0.0, 1.0, 2**31)] * 3), "expected 158456325028528675187087900672"),
    ],
    ids=["dimension-4", "axis-count-1", "nan-payload", "infinite-step", "squared-overflow", "size-wrap"],
)
def test_malformed_signal_file_exits_2(tmp_path, capsys, raw, fragment):
    path = tmp_path / "bad.sig"
    path.write_bytes(raw)
    with pytest.raises(SignalFileError, match=fragment):
        read_signal(path)
    rc = main(["cfrwt", str(path), "--output", str(tmp_path / "w.coef")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize("value", [np.nan, 1e155], ids=["nan", "overflowing-energy"])
def test_writers_refuse_what_readers_refuse(tmp_path, grid_256, value):
    values = np.full((1,) + grid_256.shape, value, dtype=np.complex128)
    scales = log_scale_grid(0.5, 2.0, 1, signs="positive")
    coeffs = CfrwtCoefficients(values, grid_256, scales, TransformOrder(0.9), "mexican_hat")
    path = tmp_path / "bad.coef"
    with pytest.raises(SignalFileError, match="not written"):
        write_coefficients(path, coeffs)
    assert not path.exists()
    if np.isfinite(value):  # a SampledSignal holds finite samples only
        with pytest.raises(SignalFileError, match="not written"):
            write_signal(tmp_path / "bad.sig", SampledSignal(grid_256, values[0]))
        assert not (tmp_path / "bad.sig").exists()


@pytest.mark.parametrize("step, value", [(1.0, 1e153), (1e150, 1e150)], ids=["huge-samples", "huge-step"])
def test_cli_cfrwt_refuses_coefficients_synth_would_refuse(tmp_path, capsys, step, value):
    # the signal file is valid, but its coefficients overflow
    grid = Grid((AxisSpec(-32 * step, step, 64),))
    src = tmp_path / "in.sig"
    write_signal(src, SampledSignal(grid, np.full(grid.shape, value, dtype=np.complex128)))
    out = tmp_path / "w.coef"
    with np.errstate(all="ignore"):
        rc = main(["cfrwt", str(src), "--output", str(out)])
    assert rc == 2
    assert "not written" in capsys.readouterr().err
    assert not out.exists()


def test_coefficient_file_at_delta_order_is_malformed(tmp_path, grid_256):
    import struct

    scales = log_scale_grid(0.25, 4.0, 2, signs="both")
    coeffs = cfrwt_fast(_modulated(grid_256), get_wavelet("mexican_hat"), 0.9, scales)
    path = tmp_path / "w.coef"
    write_coefficients(path, coeffs)
    raw = bytearray(path.read_bytes())
    offset = 7 + 20  # header, one axis block, then the order
    assert struct.unpack_from("<d", raw, offset)[0] == 0.9
    for alpha in (0.0, math.pi, math.nan):
        struct.pack_into("<d", raw, offset, alpha)
        path.write_bytes(bytes(raw))
        with pytest.raises(SignalFileError, match="cannot carry coefficients"):
            read_coefficients(path)


def test_csv_agrees_with_binary(tmp_path, grid_256):
    f = random_smooth_signal(grid_256, seed=11)
    bin_path = tmp_path / "f.sig"
    csv_path = tmp_path / "f.csv"
    write_signal(bin_path, f)
    write_csv(csv_path, f)
    from_bin = read_signal(bin_path)
    from_csv = read_csv(csv_path)
    assert from_csv.grid.shape == from_bin.grid.shape
    # %.17g text keeps every bit of a double
    assert np.max(np.abs(from_csv.values - from_bin.values)) <= 1e-15
    for a, b in zip(from_csv.grid.axes, from_bin.grid.axes):
        assert a.start == pytest.approx(b.start, abs=1e-15)
        assert a.step == pytest.approx(b.step, abs=1e-15)


def test_csv_round_trip_2d(tmp_path):
    grid = Grid((axis_centered(0.5, 8), axis_centered(0.25, 4)))
    rng = np.random.default_rng(5)
    f = SampledSignal(grid, rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4)))
    path = tmp_path / "f.csv"
    write_csv(path, f)
    g = read_csv(path)
    assert g.grid.shape == (8, 4)
    assert np.max(np.abs(g.values - f.values)) <= 1e-15


# ---------------------------------------------------------------------------
# coefficient files


def test_coefficients_round_trip(tmp_path, grid_256):
    f = _modulated(grid_256)
    scales = log_scale_grid(0.25, 4.0, 8, signs="both")
    coeffs = cfrwt_fast(f, get_wavelet("mexican_hat"), 0.9, scales)
    path = tmp_path / "w.coef"
    write_coefficients(path, coeffs)
    back = read_coefficients(path)
    assert np.array_equal(back.values, coeffs.values)
    assert np.array_equal(back.scales.vectors, coeffs.scales.vectors)
    assert back.order.alpha == coeffs.order.alpha
    assert back.wavelet == coeffs.wavelet
    np.testing.assert_allclose(
        back.measure_weights(), coeffs.measure_weights(), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# run configuration


def test_config_defaults_without_file():
    assert parse_run_config(None) == RunConfig()


def test_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "alpha = 1.2\n"
        "# comment line\n"
        "wavelet = gaussian\n"
        "a_count = 16   # trailing comment\n"
        "tolerance = 0.03\n"
        "threads = 2\n"
    )
    cfg = parse_run_config(path)
    assert cfg.alpha == 1.2
    assert cfg.wavelet == "gaussian"
    assert cfg.a_count == 16
    assert cfg.tolerance == 0.03
    assert cfg.a_min == RunConfig().a_min


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("mystery = 4", "unknown config key"),
        ("alpha = fast", "bad value"),
        ("just a sentence", "expected key=value"),
        ("a_min = 8\na_max = 2", "a_min < a_max"),
        ("threads = 0", "threads"),
    ],
)
def test_config_rejects_bad_input(tmp_path, line, fragment):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(SignalFileError, match=fragment):
        parse_run_config(path)


# ---------------------------------------------------------------------------
# command front end (in-process)


@pytest.fixture()
def signal_file(tmp_path, grid_256):
    path = tmp_path / "in.sig"
    write_signal(path, _modulated(grid_256))
    return path


def test_cli_frft_prints_parseval_residual(tmp_path, signal_file, capsys):
    out = tmp_path / "out.sig"
    rc = main(["frft", str(signal_file), "--alpha", "0.9", "--output", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "parseval residual:" in captured
    residual = float(captured.split(":")[1])
    assert residual <= 1e-6
    transformed = read_signal(out)
    expected = frft_fast(read_signal(signal_file), 0.9)
    assert np.max(np.abs(transformed.values - expected.values)) <= 1e-12


def test_cli_frft_identity_order_copies_bytes(tmp_path, signal_file, capsys):
    out = tmp_path / "out.sig"
    rc = main(["frft", str(signal_file), "--alpha", "0", "--output", str(out)])
    assert rc == 0
    assert out.read_bytes() == signal_file.read_bytes()


def test_cli_frft_direct_engine_and_csv(tmp_path, grid_256, capsys):
    # csv in, csv out, direct engine; small grid keeps the direct path cheap
    grid = Grid((axis_centered(0.25, 64),))
    src = tmp_path / "in.csv"
    write_csv(src, _modulated(grid))
    out = tmp_path / "out.csv"
    rc = main(
        ["frft", str(src), "--alpha", "1.3", "--engine", "direct", "--output", str(out)]
    )
    assert rc == 0
    expected = frft_fast(read_csv(src), 1.3)
    got = read_csv(out)
    assert np.max(np.abs(got.values - expected.values)) <= 1e-8


def test_cli_missing_input_is_parse_failure(tmp_path, capsys):
    rc = main(
        ["frft", str(tmp_path / "no.sig"), "--alpha", "0.9", "--output", "x.sig"]
    )
    assert rc == 2
    assert "no.sig" in capsys.readouterr().err


def test_cli_corrupt_input_is_parse_failure(tmp_path, signal_file, capsys):
    raw = bytearray(signal_file.read_bytes())
    raw[:4] = b"WRNG"
    signal_file.write_bytes(bytes(raw))
    rc = main(["frft", str(signal_file), "--alpha", "0.9", "--output", "x.sig"])
    assert rc == 2
    assert "bad magic" in capsys.readouterr().err


def test_cli_cfrwt_degenerate_order_exits_3(tmp_path, signal_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0\n")
    out = tmp_path / "w.coef"
    rc = main(
        ["cfrwt", str(signal_file), "--config", str(cfg), "--output", str(out)]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "degenerate order" in err
    # the message must point at the exact dispatch the frft command offers
    assert "frft" in err and "identity" in err


def test_cli_cfrwt_inadmissible_exits_4(tmp_path, signal_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wavelet = gaussian\n")
    out = tmp_path / "w.coef"
    rc = main(
        ["cfrwt", str(signal_file), "--config", str(cfg), "--output", str(out)]
    )
    assert rc == 4
    err = capsys.readouterr().err
    assert "inadmissible" in err
    assert "divergence trace" in err
    # the trace itself: one (cutoff, integral) pair per halving
    assert len([ln for ln in err.splitlines() if ln.startswith("  ")]) >= 4


def test_cli_cfrwt_unknown_wavelet_is_parse_failure(tmp_path, signal_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wavelet = nope\n")
    rc = main(
        ["cfrwt", str(signal_file), "--config", str(cfg), "--output", "w.coef"]
    )
    assert rc == 2
    assert "unknown wavelet" in capsys.readouterr().err


def test_cli_cfrwt_then_synth_round_trip(tmp_path, signal_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 0.05\n")
    coef = tmp_path / "w.coef"
    rc = main(["cfrwt", str(signal_file), "--config", str(cfg), "--output", str(coef)])
    assert rc == 0
    assert coef.exists()

    recon = tmp_path / "recon.sig"
    rc = main(
        [
            "synth",
            str(coef),
            "--config",
            str(cfg),
            "--output",
            str(recon),
            "--reference",
            str(signal_file),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    line = [ln for ln in captured.splitlines() if "reconstruction error" in ln][0]
    assert float(line.split(":")[1]) <= 0.05


def test_cli_verify_emits_json_lines(capsys):
    rc = main(["verify", "parseval"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert lines
    for line in lines:
        record = json.loads(line)
        for key in ("name", "lhs", "rhs", "ratio", "tolerance", "pass"):
            assert key in record
        assert record["pass"] is True
        assert "grid" in record


def test_cli_verify_unknown_suite_exits_5(capsys):
    rc = main(["verify", "nonsense"])
    assert rc == 5
    err = capsys.readouterr().err
    assert "parseval" in err and "morrey" in err


def test_cli_verify_suite_error_is_not_unknown_suite(monkeypatch, capsys):
    from frwt import verify

    def broken(cfg):
        raise ValueError("fixture out of range\nsecond line")

    monkeypatch.setitem(verify._SUITES, "parseval", broken)
    rc = main(["verify", "parseval"])
    assert rc == 6
    err = capsys.readouterr().err
    assert err == "suite error: parseval: ValueError: fixture out of range second line\n"


def test_cli_verify_suite_package_error_keeps_its_code(monkeypatch, capsys):
    from frwt import verify
    from frwt.errors import InadmissibleWavelet

    def inadmissible(cfg):
        raise InadmissibleWavelet("diverges")

    monkeypatch.setitem(verify._SUITES, "parseval", inadmissible)
    assert main(["verify", "parseval"]) == 4


def test_cli_module_entry_point(tmp_path, grid_256):
    # one subprocess run to prove the installed module wiring works
    src = tmp_path / "in.sig"
    write_signal(src, _modulated(grid_256))
    out = tmp_path / "out.sig"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "frwt.cli",
            "frft",
            str(src),
            "--alpha",
            "0.7",
            "--output",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "parseval residual" in proc.stdout
    assert out.exists()


def test_import_does_not_load_scipy_signal():
    # no scipy module at all: scipy.fft alone costs about 0.4 s of cold start
    code = "import sys, frwt.cli; print(' '.join(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
