"""File format round trips and command front-end behavior."""

import gc
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from frwt import (
    CfrwtCoefficients,
    RunConfig,
    SampledSignal,
    TransformOrder,
    WaveletSpec,
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
from frwt import frft as frft_module
from frwt.cli import main
from frwt.errors import SignalFileError
from frwt.grid import AxisSpec, Grid, axis_centered, sample
from frwt.scales import ScaleGrid

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
        # each axis's squares are finite, but |t|^2 = t1^2 + t2^2 overflows
        (_header_bytes(2, [(0.0, 1.3e154 / 3, 4)] * 2) + _payload(16), "invalid axis"),
        # 2^93 samples: a wrapping int64 product would expect 0 payload bytes
        (_header_bytes(3, [(0.0, 1.0, 2**31)] * 3), "expected 158456325028528675187087900672"),
    ],
    ids=[
        "dimension-4", "axis-count-1", "nan-payload", "infinite-step", "squared-overflow", "squared-sum-overflow",
        "size-wrap",
    ],
)
def test_malformed_signal_file_exits_2(tmp_path, capsys, raw, fragment):
    path = tmp_path / "bad.sig"
    path.write_bytes(raw)
    with pytest.raises(SignalFileError, match=fragment):
        read_signal(path)
    rc = main(["cfrwt", str(path), "--output", str(tmp_path / "w.coef")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize(
    "rows, fragment",
    [
        ([(k * 1e200, 0.5) for k in range(1, 5)], "invalid axis"),
        ([(-1e308, 0.5), (1e308, 0.5)], "invalid axis"),
        ([(0.5 * k, 1e200 if k == 1 else 0.5) for k in range(4)], "overflowing energy"),
        # numpy warned that the input contained no data, then the
        # refusal named a column count
        ([], "no data rows"),
    ],
    ids=["squared-overflow", "step-overflow", "overflowing-energy", "header-only"],
)
def test_malformed_csv_file_exits_2(tmp_path, capsys, rows, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("t1,re,im\n" + "".join(f"{t!r},{re!r},0\n" for t, re in rows))
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would add lines to stderr
        with pytest.raises(SignalFileError, match=fragment):
            read_csv(path)
        rc = main(["frft", str(path), "--alpha", "0.9", "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {path}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("engine", ["fast", "direct"])
def test_cli_frft_without_an_output_grid_exits_2(tmp_path, capsys, engine):
    # a legal input whose natural output step 2 pi sin(alpha) / (N dt) is about 1e300
    path = tmp_path / "tiny.sig"
    path.write_bytes(_header_bytes(1, [(0.0, 1e-300, 4)]) + _payload(4))
    out = tmp_path / "x.sig"
    rc = main(["frft", str(path), "--alpha", "0.9", "--engine", engine, "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no output grid for order 0.9 on input steps [1e-300]") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, 1e155], ids=["nan", "overflowing-energy"])
def test_writers_refuse_what_readers_refuse(tmp_path, grid_256, value):
    values = np.full((1,) + grid_256.shape, value, dtype=np.complex128)
    scales = log_scale_grid(0.5, 2.0, 1, signs="positive")
    coeffs = CfrwtCoefficients(values, grid_256, scales, TransformOrder(0.9), get_wavelet("mexican_hat"))
    path = tmp_path / "bad.coef"
    with pytest.raises(SignalFileError, match="not written"):
        write_coefficients(path, coeffs)
    assert not path.exists()
    if np.isfinite(value):  # a SampledSignal holds finite samples only
        for writer, name in ((write_signal, "bad.sig"), (write_csv, "bad.csv")):
            with pytest.raises(SignalFileError, match="not written"):
                writer(tmp_path / name, SampledSignal(grid_256, values[0]))
            assert not (tmp_path / name).exists()


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


def test_csv_round_trip_keeps_signed_zeros(tmp_path):
    # the binary files keep the sign of a zero part, and so does the CSV
    grid = Grid((axis_centered(0.5, 4),))
    values = np.array([complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -0.0), complex(0.0, 0.0)])
    path = tmp_path / "z.csv"
    write_csv(path, SampledSignal(grid, values))
    back = read_csv(path).values
    assert np.array_equal(np.signbit(back.real), np.signbit(values.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(values.imag))
    assert np.array_equal(back, values)


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
    assert back.wavelet is get_wavelet("mexican_hat")
    np.testing.assert_allclose(
        back.measure_weights(), coeffs.measure_weights(), rtol=1e-12
    )


def test_coefficient_file_naming_an_unknown_wavelet_exits_2(tmp_path, capsys, grid_256):
    """The stored name is resolved through the catalog on reading; a name
    outside it is a malformed file, and synth reports it on one line."""
    path = tmp_path / "w.coef"
    write_coefficients(path, _coefficients(grid_256, 3, seed=12))
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"mexican_hat", b"mexican_hot", 1))
    with pytest.raises(SignalFileError, match="unknown wavelet 'mexican_hot'"):
        read_coefficients(path)
    out = tmp_path / "w.sig"
    assert main(["synth", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {path}: unknown wavelet") and err.count("\n") == 1
    assert not out.exists()


def test_field_of_a_wavelet_outside_the_catalog_is_not_written(tmp_path, grid_256):
    """A file names its wavelet, so a field taken with a wavelet the catalog
    does not hold under that name would come back with another one."""
    mex = get_wavelet("mexican_hat")
    field = _coefficients(grid_256, 3, seed=13)
    path = tmp_path / "w.coef"
    for psi in (WaveletSpec("mexhat_wide", mex.profile, 12.0), WaveletSpec("mexican_hat", mex.profile, 12.0)):
        with pytest.raises(SignalFileError, match="not written"):
            write_coefficients(path, replace(field, wavelet=psi))
        assert not path.exists()


def test_coefficient_file_with_squared_scale_weights_still_reads(tmp_path):
    """Files written while measure weights were h^n / prod(a_i^2 / |a_i|)
    carry weights a few ulps off h^n / prod|a_i|; they still read."""
    grid = Grid((axis_centered(0.5, 8), axis_centered(0.5, 4)))
    scales = log_scale_grid(0.3, 7.0, 13, ndim=2, signs="both")
    v = scales.vectors
    old = scales.log_step**2 / np.prod(v**2 / np.abs(v), axis=1)
    assert np.any(old != scales.measure_weights())
    rng = np.random.default_rng(11)
    shape = (scales.count,) + grid.shape
    coeffs = CfrwtCoefficients(rng.normal(size=shape) + 0j, grid, scales, TransformOrder(0.9), get_wavelet("mexican_hat"))
    path = tmp_path / "old.coef"
    write_coefficients(path, coeffs)
    raw = bytearray(path.read_bytes())
    at = len(raw) - 16 * coeffs.values.size - 8 * scales.count
    assert raw[at : at + 8 * scales.count] == scales.measure_weights().astype("<f8").tobytes()
    raw[at : at + 8 * scales.count] = old.astype("<f8").tobytes()
    path.write_bytes(bytes(raw))
    back = read_coefficients(path)
    assert np.array_equal(back.values, coeffs.values)
    assert np.array_equal(back.measure_weights(), coeffs.measure_weights())


def _c16_bits(values):
    return np.ascontiguousarray(values, dtype="<c16").view("<u8")


def _coefficients(grid, count, seed):
    scales = log_scale_grid(0.25, 4.0, count, ndim=grid.ndim, signs="positive")
    rng = np.random.default_rng(seed)
    shape = (scales.count,) + grid.shape
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return CfrwtCoefficients(values, grid, scales, TransformOrder(0.9), get_wavelet("mexican_hat"))


@pytest.mark.parametrize("log_step", [-0.5, math.inf, math.nan], ids=["negative", "infinite", "nan"])
def test_a_negative_or_non_finite_log_step_is_refused(tmp_path, grid_256, capsys, log_step):
    """A field whose scale block has a negative log step negates every
    measure weight: synth printed the negated signal's error and exited 0.
    The writer refuses such a field, and the reader such a file."""
    field = _coefficients(grid_256, 3, seed=13)
    good = tmp_path / "good.coef"
    write_coefficients(good, field)
    scales = field.scales
    bad_scales = ScaleGrid(scales.vectors, log_step, scales.a_min, scales.a_max, scales.signs)
    path = tmp_path / "bad.coef"
    with pytest.raises(SignalFileError, match="not written, scale log step"):
        write_coefficients(path, replace(field, scales=bad_scales))
    assert not path.exists()
    # the same file with the log step and the weights it implies written in
    import struct

    raw = good.read_bytes()
    block = struct.Struct("<IBddd")
    for old, new in (
        (block.pack(3, 1, scales.log_step, scales.a_min, scales.a_max), block.pack(3, 1, log_step, scales.a_min, scales.a_max)),
        (scales.measure_weights().astype("<f8").tobytes(), bad_scales.measure_weights().astype("<f8").tobytes()),
    ):
        assert raw.count(old) == 1
        raw = raw.replace(old, new)
    path.write_bytes(raw)
    with pytest.raises(SignalFileError, match="scale log step"):
        read_coefficients(path)
    out = tmp_path / "out.sig"
    assert main(["synth", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {path}: scale log step") and err.count("\n") == 1
    assert not out.exists()


def test_a_zero_log_step_field_is_written_and_read(tmp_path, grid_256):
    # Morrey's single-scale slices carry a zero log step
    field = _coefficients(grid_256, 3, seed=14)
    scales = replace(field.scales, log_step=0.0)
    path = tmp_path / "zero.coef"
    write_coefficients(path, replace(field, scales=scales))
    assert read_coefficients(path).scales.log_step == 0.0


def test_read_of_write_is_bit_exact_with_signed_zeros(tmp_path, grid_256):
    """Readers return the stored bits: a -0.0 real or imaginary part
    survives the round trip (re + 1j * im would turn a -0.0 real part
    into +0.0)."""
    values = random_smooth_signal(grid_256, seed=5).values.copy()
    values[:4] = [complex(-0.0, 1.0), complex(-0.0, -0.0), complex(1.0, -0.0), 0j]
    path = tmp_path / "f.sig"
    write_signal(path, SampledSignal(grid_256, values))
    assert np.array_equal(_c16_bits(read_signal(path).values), _c16_bits(values))

    coeffs = _coefficients(grid_256, 3, seed=6)
    coeffs.values[1, :4] = values[:4]
    path = tmp_path / "w.coef"
    write_coefficients(path, coeffs)
    assert np.array_equal(_c16_bits(read_coefficients(path).values), _c16_bits(coeffs.values))


def test_written_payload_is_the_c16_buffer(tmp_path):
    """Both writers put the header, then the bytes of the little-endian
    complex128 array."""
    grid = Grid((axis_centered(0.5, 16), axis_centered(0.25, 8)))
    f = random_smooth_signal(grid, seed=8)
    path = tmp_path / "f.sig"
    write_signal(path, f)
    axes = [(ax.start, ax.step, ax.count) for ax in grid.axes]
    assert path.read_bytes() == _header_bytes(2, axes) + np.asarray(f.values, "<c16").tobytes()

    coeffs = _coefficients(grid, 3, seed=9)
    path = tmp_path / "w.coef"
    write_coefficients(path, coeffs)
    raw = path.read_bytes()
    count = coeffs.scales.count
    head = 7 + 20 * 2 + 8 + 1 + len("mexican_hat") + 5 + 24 + 1 + len("positive") + 8 * count * 2 + 8 * count
    assert raw[head:] == np.asarray(coeffs.values, "<c16").tobytes()


def test_written_files_match_golden_bytes(tmp_path):
    """The container layout, packed here field by field: a 1-D signal,
    then a 2-D coefficient field."""
    import struct

    signal = SampledSignal(Grid((AxisSpec(-1.0, 0.5, 4),)), np.array([1 + 2j, -0.5, 0.25j, 3 - 1j]))
    golden = (
        struct.pack("<4sHB", b"FRWT", 1, 1)
        + struct.pack("<ddI", -1.0, 0.5, 4)
        + struct.pack("<8d", 1.0, 2.0, -0.5, 0.0, 0.0, 0.25, 3.0, -1.0)
    )
    write_signal(tmp_path / "f.sig", signal)
    assert (tmp_path / "f.sig").read_bytes() == golden

    grid = Grid((AxisSpec(-0.5, 0.5, 2), AxisSpec(0.0, 0.25, 3)))
    scales = ScaleGrid(np.array([[1.0, 2.0], [-1.0, 0.5]]), log_step=0.5, a_min=0.5, a_max=2.0, signs="both")
    values = np.arange(12.0).reshape(2, 2, 3) + 0.5j
    coeffs = CfrwtCoefficients(values, grid, scales, TransformOrder(0.9), get_wavelet("mexican_hat"))
    golden = (
        struct.pack("<4sHB", b"FRWC", 1, 2)
        + struct.pack("<ddI", -0.5, 0.5, 2)
        + struct.pack("<ddI", 0.0, 0.25, 3)
        + struct.pack("<d", 0.9)
        + struct.pack("<B", 11) + b"mexican_hat"
        + struct.pack("<IB", 2, 2)
        + struct.pack("<ddd", 0.5, 0.5, 2.0)
        + struct.pack("<B", 4) + b"both"
        + struct.pack("<4d", 1.0, 2.0, -1.0, 0.5)
        + struct.pack("<2d", 0.125, 0.5)  # h^2 / |a_1 a_2|
        + struct.pack("<24d", *[part for k in range(12) for part in (float(k), 0.5)])
    )
    write_coefficients(tmp_path / "w.coef", coeffs)
    assert (tmp_path / "w.coef").read_bytes() == golden


def test_read_coefficients_holds_one_payload(tmp_path):
    """Reading a 2 MiB coefficient file allocates little beyond the array
    it returns."""
    import tracemalloc

    coeffs = _coefficients(Grid((axis_centered(0.0625, 1024),)), 128, seed=10)
    path = tmp_path / "w.coef"
    write_coefficients(path, coeffs)
    payload = coeffs.values.nbytes
    tracemalloc.start()
    try:
        back = read_coefficients(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, coeffs.values)
    assert peak < 1.25 * payload


def test_oversized_header_is_refused_before_allocation(tmp_path, capsys, grid_256):
    """A header that claims 3 x 2^31 samples exits 2 on the size check,
    before any payload is allocated."""
    import struct
    import tracemalloc

    signal = tmp_path / "big.sig"
    signal.write_bytes(_header_bytes(2, [(0.0, 1.0, 3), (0.0, 1.0, 2**31)]) + _payload(8))
    coef = tmp_path / "big.coef"
    write_coefficients(coef, _coefficients(grid_256, 3, seed=11))
    raw = bytearray(coef.read_bytes())
    struct.pack_into("<I", raw, 7 + 16, 2**31)  # the shift axis count
    coef.write_bytes(bytes(raw))
    for reader, path in ((read_signal, signal), (read_coefficients, coef)):
        tracemalloc.start()
        try:
            with pytest.raises(SignalFileError, match="expected 103079215104"):
                reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    assert main(["cfrwt", str(signal), "--output", str(tmp_path / "w.coef")]) == 2
    assert main(["synth", str(coef), "--output", str(tmp_path / "w.sig")]) == 2
    assert capsys.readouterr().err.count("parse error:") == 2


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
        ("a_max = inf", "a_max must be finite"),
        ("u_max = inf", "u_max must be finite"),
        ("tolerance = nan", "tolerance must be finite"),
        ("nu = inf", "nu must be finite"),
    ],
)
def test_config_rejects_bad_input(tmp_path, line, fragment):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(SignalFileError, match=fragment):
        parse_run_config(path)


@pytest.mark.parametrize(
    "command, config, fragment",
    [
        # np.arange in log_scale_grid raised "Maximum allowed size exceeded"
        ("cfrwt", "a_count = 99999999999999999999\n", "a_count must be between 1 and 4096"),
        ("cfrwt", "a_count = 4097\n", "a_count must be between 1 and 4096"),
        # the scan's point count overflowed: float infinity to integer
        ("plancherel", "u_min = 1e-300\nu_max = 1e300\n", "u_max / u_min <= 1e+40"),
        ("plancherel", "u_min = 1e-20\nu_max = 1.1e20\n", "u_max / u_min <= 1e+40"),
        ("cfrwt", "u_min = 5e-324\nu_max = 1e-320\n", "u_min >= 1e-300"),
        # the log step was inf: verify printed NaN records and numpy
        # warnings, cfrwt ran its pass and then refused to write
        ("heisenberg", "a_min = 1e-300\na_max = 1e300\n", "a_max / a_min overflows"),
        ("cfrwt", "a_min = 1e-300\na_max = 1e300\n", "a_max / a_min overflows"),
        ("cfrwt", "a_min = 5e-324\n", "a_max / a_min overflows"),
    ],
    ids=[
        "huge-a_count", "a_count-past-limit", "unbounded-band", "band-past-limit", "subnormal-u_min",
        "overflowing-scale-ratio-verify", "overflowing-scale-ratio-cfrwt", "subnormal-a_min",
    ],
)
def test_a_config_past_a_stated_limit_is_a_parse_failure(tmp_path, grid_256, command, config, fragment):
    """A config whose scale count or admissibility band is past the limits
    README states exits 2 with one stderr line, in a fresh process."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    if command == "cfrwt":
        signal = tmp_path / "in.sig"
        write_signal(signal, _modulated(grid_256))
        argv = ["cfrwt", str(signal), "--output", str(tmp_path / "w.coef")]
    else:
        argv = ["verify", command]
    proc = subprocess.run(
        [sys.executable, "-m", "frwt.cli", *argv, "--config", str(cfg)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("parse error: ") and fragment in proc.stderr
    assert not (tmp_path / "w.coef").exists()


def _cli_in_an_ascii_locale(*argv):
    """A fresh `frwt` process in the C locale with UTF-8 mode and locale
    coercion off, where a bare open() decodes text as ASCII."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "frwt.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_a_config_is_utf8_text_in_any_locale(tmp_path, grid_256):
    """A UTF-8 comment reads in an ASCII locale, and a byte that is not
    UTF-8 exits 2 with one line (both exited 6)."""
    signal = tmp_path / "in.sig"
    write_signal(signal, _modulated(grid_256))
    cfg = tmp_path / "run.cfg"
    argv = ["cfrwt", str(signal), "--config", str(cfg), "--output", str(tmp_path / "w.coef")]
    cfg.write_bytes("# ordre α\na_count = 4\n".encode())
    proc = _cli_in_an_ascii_locale(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    cfg.write_bytes(b"# ordre \xff\na_count = 4\n")
    proc = _cli_in_an_ascii_locale(*argv)
    assert (proc.returncode, proc.stderr) == (2, f"parse error: {cfg}: not UTF-8 text: invalid start byte\n")


def test_a_csv_is_utf8_text_in_any_locale(tmp_path):
    """A UTF-8 comment reads in an ASCII locale, and a byte that is not
    UTF-8 exits 2 with one line, in the header or past numpy's first read
    (each exited 6)."""
    path = tmp_path / "in.csv"
    rows = "".join(f"{0.125 * k!r},{math.exp(-k * k / 64)!r},0\n" for k in range(-600, 600))
    argv = ["frft", str(path), "--alpha", "0.9", "--output", str(tmp_path / "out.sig")]
    path.write_bytes(("t1,re,im\n# temps α\n" + rows).encode())
    proc = _cli_in_an_ascii_locale(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    for raw in (b"t1\xff,re,im\n" + rows.encode(), b"t1,re,im\n" + rows.encode() + b"# \xff\n"):
        path.write_bytes(raw)
        proc = _cli_in_an_ascii_locale(*argv)
        assert (proc.returncode, proc.stderr) == (2, f"parse error: {path}: not UTF-8 text: invalid start byte\n")


# Each case asks for a scale grid or a field past a stated limit, where
# building it would take gigabytes; a process capped at 1 GiB of address
# space fails at once if the limit is not checked before the build.
_ADDRESS_SPACE_CAP = 1 << 30


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_CAP, _ADDRESS_SPACE_CAP))


@pytest.mark.parametrize(
    "shape, a_count, fragment",
    [
        # (2 * 4096)^2 scale vectors: a MemoryError traceback, exit 1, before the limit
        ((16, 16), 4096, "(2 a_count)^2 = 67108864 scale vectors, more than 65536"),
        ((8, 8, 8), 64, "(2 a_count)^3 = 2097152 scale vectors, more than 65536"),
        # 8192 scale vectors of 16384 samples: 2 GiB of coefficients
        ((16384,), 4096, "8192 scale vectors x 16384 samples, more than 67108864 coefficients"),
    ],
    ids=["2d-vectors", "3d-vectors", "1d-field"],
)
def test_a_scale_grid_or_field_past_its_limit_is_refused_before_it_is_built(tmp_path, shape, a_count, fragment):
    grid = Grid(tuple(axis_centered(0.125, n) for n in shape))
    signal = tmp_path / "in.sig"
    write_signal(signal, SampledSignal(grid, np.ones(grid.shape, dtype=np.complex128)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"a_count = {a_count}\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    argv = [sys.executable, "-m", "frwt.cli", "cfrwt", str(signal), "--config", str(cfg), "--output", str(tmp_path / "w.coef")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120, preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stderr.count("\n")) == (2, 1), proc.stderr[-2000:]
    assert proc.stderr.startswith("parse error: config: ") and fragment in proc.stderr
    assert not (tmp_path / "w.coef").exists()


def test_the_default_scale_grid_in_two_dimensions_is_within_the_limits():
    assert RunConfig().scale_grid(2, 64 * 64).count == 16384


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


@pytest.mark.parametrize(
    "command, target, reason",
    [
        ("frft", "", "Is a directory"),
        ("cfrwt", "", "Is a directory"),
        ("synth", "", "Is a directory"),
        ("frft", "missing/x.sig", "No such file or directory"),
        ("frft", "missing/x.csv", "No such file or directory"),
    ],
)
def test_cli_unwritable_output_is_a_write_error(tmp_path, signal_file, capsys, command, target, reason):
    source = signal_file
    if command == "synth":
        source = tmp_path / "w.coef"
        assert main(["cfrwt", str(signal_file), "--output", str(source)]) == 0
        capsys.readouterr()
    options = ["--alpha", "0.9"] if command == "frft" else []
    out = tmp_path / target
    rc = main([command, str(source), *options, "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"


@pytest.mark.parametrize(
    "command, role",
    [("frft", "input"), ("cfrwt", "input"), ("synth", "input"), ("cfrwt", "--config"), ("synth", "--reference")],
)
def test_cli_unreadable_input_is_a_read_error(tmp_path, signal_file, capsys, command, role):
    source = signal_file
    if command == "synth":
        source = tmp_path / "w.coef"
        assert main(["cfrwt", str(signal_file), "--output", str(source)]) == 0
        capsys.readouterr()
    folder = tmp_path / "dir"
    folder.mkdir()
    out = tmp_path / "out.sig"
    argv = [command, str(folder if role == "input" else source), "--output", str(out)]
    argv += ["--alpha", "0.9"] if command == "frft" else []
    argv += [role, str(folder)] if role != "input" else []
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot read {folder}: Is a directory\n"
    assert not out.exists()


@pytest.mark.parametrize("reference", ["missing", "other grid"])
def test_cli_synth_checks_the_reference_before_writing(tmp_path, signal_file, capsys, reference):
    coef = tmp_path / "w.coef"
    assert main(["cfrwt", str(signal_file), "--output", str(coef)]) == 0
    capsys.readouterr()
    ref = tmp_path / "ref.sig"
    if reference == "other grid":
        write_signal(ref, _modulated(Grid((axis_centered(0.125, 128),))))
    out = tmp_path / "out.sig"
    rc = main(["synth", str(coef), "--output", str(out), "--reference", str(ref)])
    assert rc == 2
    if reference == "missing":
        expected = f"error: cannot read {ref}: No such file or directory\n"
    else:
        expected = "error: the reference signal does not share the coefficients' grid\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()


@pytest.fixture(params=["devnull", "pipe"])
def non_regular_path(request, tmp_path, gaussian_256):
    """/dev/null, or the read end of a pipe holding a whole signal file,
    opened through /dev/fd.  The write end stays open, so opening the
    read end does not wait for a writer."""
    if request.param == "devnull":
        yield "/dev/null"
        return
    write_signal(tmp_path / "a.sig", gaussian_256)
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, (tmp_path / "a.sig").read_bytes())
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        os.close(write_fd)


@pytest.mark.parametrize("reader", [read_signal, read_coefficients, read_csv])
def test_non_regular_file_is_refused(non_regular_path, reader):
    with pytest.raises(SignalFileError, match=f"^{non_regular_path}: not a regular file$"):
        reader(non_regular_path)


@pytest.mark.parametrize("kind", ["devnull", "fifo", "csv-fifo"])
def test_cli_non_regular_input_exits_2(tmp_path, kind):
    # in a subprocess with a timeout: a FIFO with no writer must not block
    path = "/dev/null" if kind == "devnull" else str(tmp_path / ("in.csv" if kind == "csv-fifo" else "in.sig"))
    if kind != "devnull":
        os.mkfifo(path)
    cmd = [sys.executable, "-m", "frwt.cli", "frft", path, "--alpha", "0.9", "--output", str(tmp_path / "x.sig")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert f"{path}: not a regular file" in proc.stderr


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


def test_cli_synth_against_an_all_zero_reference(tmp_path, grid_256):
    zero = tmp_path / "zero.sig"
    write_signal(zero, SampledSignal(grid_256, np.zeros(grid_256.shape)))
    coef = tmp_path / "w.coef"
    assert main(["cfrwt", str(zero), "--output", str(coef)]) == 0
    cmd = [sys.executable, "-m", "frwt.cli", "synth", str(coef), "--output", str(tmp_path / "r.sig"), "--reference", str(zero)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "reconstruction error: 0.000000e+00" in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_cli_frft_non_finite_alpha_is_parse_failure(tmp_path, signal_file, capsys, alpha):
    with pytest.raises(SystemExit) as exc:
        main(["frft", str(signal_file), f"--alpha={alpha}", "--output", str(tmp_path / "x.sig")])
    assert exc.value.code == 2
    assert f"not a finite number: {alpha!r}" in capsys.readouterr().err
    assert not (tmp_path / "x.sig").exists()


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


@pytest.mark.parametrize("command, target", [("frft", "frft_fast"), ("cfrwt", "cfrwt_fast"), ("synth", "reconstruct")])
def test_an_unexpected_error_in_a_command_is_one_line_and_exit_6(tmp_path, grid_256, monkeypatch, capsys, command, target):
    from frwt import cli

    signal = tmp_path / "in.sig"
    write_signal(signal, _modulated(grid_256))
    coef = tmp_path / "in.coef"
    assert main(["cfrwt", str(signal), "--output", str(coef)]) == 0
    capsys.readouterr()

    def broken(*args, **kwargs):
        raise ValueError("injected\nsecond line")

    monkeypatch.setattr(cli, target, broken)
    out = tmp_path / "out"
    argv = {
        "frft": ["frft", str(signal), "--alpha", "0.9", "--output", str(out)],
        "cfrwt": ["cfrwt", str(signal), "--output", str(out)],
        "synth": ["synth", str(coef), "--output", str(out)],
    }[command]
    assert main(argv) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"unexpected error: {command}: ValueError: injected second line\n"
    assert not out.exists()


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


def test_a_closed_stdout_is_an_exit_code_not_a_traceback():
    """A reader that leaves before the records are printed, as `head`
    does, ends the command with exit 7 and nothing on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "frwt.cli", "verify", "parseval"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 7
    assert err == b""


def test_import_does_not_load_scipy_signal():
    # no scipy module at all: scipy.fft alone costs about 0.4 s of cold start
    code = "import sys, frwt.cli; print(' '.join(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# ---------------------------------------------------------------------------
# one OpenBLAS thread per command

_blas_calls = frft_module._openblas_thread_calls()
needs_blas_calls = pytest.mark.skipif(_blas_calls is None, reason="numpy's OpenBLAS exports no thread calls")


def _frwt(argv, threads):
    """Run `frwt ARGV` in a fresh process with OPENBLAS_NUM_THREADS set to
    threads, or unset for None, and return its completed process."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "frwt.cli", *argv], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _broken_suite(cfg):
    raise ValueError("fixture out of range")


@needs_blas_calls
@pytest.mark.parametrize(
    "argv,code,broken",
    [
        (["verify", "reconstruction"], 0, False),
        (["frft"], 2, False),
        (["verify", "parseval"], 6, True),
    ],
    ids=["return", "parse-error", "suite-error"],
)
def test_a_command_restores_openblas_thread_count(monkeypatch, capsys, argv, code, broken):
    from frwt import verify

    get_threads, set_threads, _ = _blas_calls
    if broken:
        monkeypatch.setitem(verify._SUITES, "parseval", _broken_suite)
    before = get_threads()
    # a count other than one, so that a count left at one shows
    set_threads(2)
    try:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        after = get_threads()
    finally:
        set_threads(before)
    assert rc == code
    assert after == 2


@needs_blas_calls
def test_a_command_runs_at_one_openblas_thread(monkeypatch, capsys):
    from frwt import verify

    get_threads, set_threads, _ = _blas_calls
    seen = []
    suite = verify._SUITES["reconstruction"]

    def recording(cfg):
        seen.append(get_threads())
        return suite(cfg)

    monkeypatch.setitem(verify._SUITES, "reconstruction", recording)
    before = get_threads()
    set_threads(2)
    try:
        assert main(["verify", "reconstruction"]) == 0
    finally:
        set_threads(before)
    assert seen == [1]


def test_a_command_without_openblas_thread_calls_is_unchanged(monkeypatch, capsys):
    assert main(["verify", "reconstruction"]) == 0
    found = capsys.readouterr().out
    monkeypatch.setattr(frft_module, "_openblas_thread_calls", lambda: None)
    assert main(["verify", "reconstruction"]) == 0
    assert capsys.readouterr().out == found
    assert main(["verify", "nonsense"]) == 5
    with pytest.raises(SystemExit) as exc:
        main(["frft"])
    assert exc.value.code == 2


def test_verify_output_does_not_depend_on_openblas_thread_count():
    outputs = {_frwt(["verify", "reconstruction"], threads).stdout for threads in (None, "1", "2")}
    assert len(outputs) == 1


def test_cli_direct_transform_does_not_depend_on_openblas_thread_count(tmp_path):
    # both axes split into row blocks, whose matrix products round by
    # OpenBLAS's thread count: every command takes the one-thread bits
    grid = Grid((axis_centered(0.05, 400), axis_centered(0.05, 300)))
    src = tmp_path / "in.sig"
    write_signal(src, random_smooth_signal(grid, seed=grid.size))
    outputs = set()
    for threads in (None, "1", "2"):
        out = tmp_path / f"out-{threads}.sig"
        _frwt(["frft", str(src), "--alpha", "0.9", "--engine", "direct", "--output", str(out)], threads)
        outputs.add(out.read_bytes())
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# the exit without the collector's last walk


def test_an_in_process_command_leaves_the_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert main(["verify", "reconstruction"]) == 0
    assert gc.get_freeze_count() == before


def test_a_command_process_keeps_its_output_and_exit_code(capsys):
    # the heap is frozen only as the interpreter exits, after main returned
    # and before stdout's flush at exit
    assert main(["verify", "parseval"]) == 0
    assert _frwt(["verify", "parseval"], None).stdout.decode() == capsys.readouterr().out
