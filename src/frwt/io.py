"""File formats: binary signal files, CSV ingestion, coefficient files,
and the plain-text run configuration.

The binary layout is fixed little-endian with an explicit version so
fixtures are bit-exact across implementations.  Header: magic "FRWT",
version u16, dimension u8, then per axis start f64, step f64, count
u32.  The payload is interleaved re/im f64 in row-major order.
Coefficient files carry the same axis block for the shift grid plus the
transform order, wavelet name, scale vectors and their measure weights.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .cfrwt import CfrwtCoefficients
from .errors import SignalFileError
from .frft import TransformOrder
from .grid import MAX_NDIM, AxisSpec, Grid, SampledSignal
from .scales import ScaleGrid

__all__ = [
    "MAGIC",
    "COEFF_MAGIC",
    "FORMAT_VERSION",
    "RunConfig",
    "read_signal",
    "write_signal",
    "read_csv",
    "write_csv",
    "read_coefficients",
    "write_coefficients",
    "parse_run_config",
]

MAGIC = b"FRWT"
COEFF_MAGIC = b"FRWC"
FORMAT_VERSION = 1

_HEAD = struct.Struct("<4sHB")
_AXIS = struct.Struct("<ddI")


def _finite_energy(flat: np.ndarray) -> bool:
    """Every re/im part finite, and their sum of squares too: the energy
    identities need a representable energy.  Writers and readers share it,
    so no file is written that its reader refuses."""
    with np.errstate(over="ignore"):
        return math.isfinite(flat @ flat)


def _interleave(values: np.ndarray, where: str) -> bytes:
    flat = np.ascontiguousarray(values, dtype=np.complex128).ravel()
    out = np.empty(2 * flat.size, dtype="<f8")
    out[0::2] = flat.real
    out[1::2] = flat.imag
    if not _finite_energy(out):
        raise SignalFileError(f"{where}: not written, the payload holds non-finite samples or an overflowing energy")
    return out.tobytes()


def _deinterleave(raw: bytes, count: int, where: str) -> np.ndarray:
    if len(raw) != 16 * count:
        raise SignalFileError(
            f"{where}: payload holds {len(raw)} bytes, expected {16 * count}"
        )
    flat = np.frombuffer(raw, dtype="<f8")
    if not _finite_energy(flat):
        raise SignalFileError(f"{where}: payload holds non-finite samples or an overflowing energy")
    return (flat[0::2] + 1j * flat[1::2]).astype(np.complex128)


def _pack_axes(grid: Grid) -> bytes:
    return b"".join(_AXIS.pack(ax.start, ax.step, ax.count) for ax in grid.axes)


def _unpack_axes(buf: bytes, offset: int, ndim: int, where: str) -> tuple[Grid, int]:
    axes = []
    for _ in range(ndim):
        if offset + _AXIS.size > len(buf):
            raise SignalFileError(f"{where}: axis block truncated at offset {offset}")
        start, step, count = _AXIS.unpack_from(buf, offset)
        offset += _AXIS.size
        stop = start + (count - 1) * step
        # squared coordinates feed the chirps, so they must stay finite too
        if count < 2 or not (step > 0 and math.isfinite(start) and math.isfinite(stop * stop + start * start)):
            raise SignalFileError(f"{where}: invalid axis (start={start}, step={step}, count={count})")
        axes.append(AxisSpec(start, step, count))
    return Grid(tuple(axes)), offset


def _check_ndim(ndim: int, where: str) -> None:
    if not 1 <= ndim <= MAX_NDIM:
        raise SignalFileError(f"{where}: dimension {ndim} outside 1..{MAX_NDIM}")


def write_signal(path: str | os.PathLike, signal: SampledSignal) -> None:
    payload = _interleave(signal.values, os.fspath(path))
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, FORMAT_VERSION, signal.ndim))
        fh.write(_pack_axes(signal.grid))
        fh.write(payload)


def read_signal(path: str | os.PathLike) -> SampledSignal:
    with open(path, "rb") as fh:
        buf = fh.read()
    where = os.fspath(path)
    if len(buf) < _HEAD.size:
        raise SignalFileError(f"{where}: header truncated ({len(buf)} bytes)")
    magic, version, ndim = _HEAD.unpack_from(buf, 0)
    if magic != MAGIC:
        raise SignalFileError(f"{where}: bad magic {magic!r} at offset 0, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise SignalFileError(f"{where}: unsupported version {version}")
    _check_ndim(ndim, where)
    grid, offset = _unpack_axes(buf, _HEAD.size, ndim, where)
    total = math.prod(grid.shape)
    values = _deinterleave(buf[offset:], total, where).reshape(grid.shape)
    return SampledSignal(grid, values)


def write_csv(path: str | os.PathLike, signal: SampledSignal) -> None:
    if signal.ndim > 3:
        raise SignalFileError("CSV export supports at most 3 axes")
    header = ",".join(f"t{k + 1}" for k in range(signal.ndim)) + ",re,im"
    coords = [m.ravel() for m in signal.grid.meshgrid()]
    flat = signal.values.ravel()
    table = np.column_stack(coords + [flat.real, flat.imag])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def _axis_from_column(col: np.ndarray, where: str, k: int) -> AxisSpec:
    points = np.unique(col)
    if points.size == 1:
        raise SignalFileError(f"{where}: axis t{k + 1} has a single coordinate")
    steps = np.diff(points)
    step = float(steps[0])
    if step <= 0 or not np.allclose(steps, step, rtol=1e-9, atol=0.0):
        raise SignalFileError(f"{where}: axis t{k + 1} coordinates are not uniformly spaced")
    return AxisSpec(float(points[0]), step, points.size)


def read_csv(path: str | os.PathLike) -> SampledSignal:
    where = os.fspath(path)
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise SignalFileError(f"{where}: {exc}") from exc
    columns = header.split(",")
    if len(columns) < 3 or columns[-2:] != ["re", "im"]:
        raise SignalFileError(f"{where}: header must be t1[,t2[,t3]],re,im, got {header!r}")
    ndim = len(columns) - 2
    if table.shape[1] != ndim + 2:
        raise SignalFileError(f"{where}: {table.shape[1]} columns for header {header!r}")
    if not np.all(np.isfinite(table)):
        raise SignalFileError(f"{where}: non-finite entries")
    axes = tuple(_axis_from_column(table[:, k], where, k) for k in range(ndim))
    grid = Grid(axes)
    shape = grid.shape
    if table.shape[0] != math.prod(shape):
        raise SignalFileError(
            f"{where}: {table.shape[0]} rows cannot fill a {shape} grid"
        )
    values = np.full(shape, np.nan + 0j, dtype=np.complex128)
    filled = np.zeros(shape, dtype=bool)
    idx = []
    for k, ax in enumerate(axes):
        j = np.rint((table[:, k] - ax.start) / ax.step).astype(int)
        if np.any((j < 0) | (j >= ax.count)):
            raise SignalFileError(f"{where}: coordinate outside axis t{k + 1}")
        idx.append(j)
    values[tuple(idx)] = table[:, ndim] + 1j * table[:, ndim + 1]
    filled[tuple(idx)] = True
    if not filled.all():
        raise SignalFileError(f"{where}: duplicate or missing grid rows")
    return SampledSignal(grid, values)


def write_coefficients(path: str | os.PathLike, coeffs: CfrwtCoefficients) -> None:
    scales = coeffs.scales
    name = coeffs.wavelet.encode()
    signs = scales.signs.encode()
    payload = _interleave(coeffs.values, os.fspath(path))
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(COEFF_MAGIC, FORMAT_VERSION, coeffs.b_grid.ndim))
        fh.write(_pack_axes(coeffs.b_grid))
        fh.write(struct.pack("<d", coeffs.order.alpha))
        fh.write(struct.pack("<B", len(name)) + name)
        fh.write(struct.pack("<IB", scales.count, scales.ndim))
        fh.write(struct.pack("<ddd", scales.log_step, scales.a_min, scales.a_max))
        fh.write(struct.pack("<B", len(signs)) + signs)
        fh.write(np.ascontiguousarray(scales.vectors, dtype="<f8").tobytes())
        fh.write(np.asarray(scales.measure_weights(), dtype="<f8").tobytes())
        fh.write(payload)


def read_coefficients(path: str | os.PathLike) -> CfrwtCoefficients:
    where = os.fspath(path)
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _HEAD.size:
        raise SignalFileError(f"{where}: header truncated")
    magic, version, ndim = _HEAD.unpack_from(buf, 0)
    if magic != COEFF_MAGIC:
        raise SignalFileError(f"{where}: bad magic {magic!r} at offset 0, expected {COEFF_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise SignalFileError(f"{where}: unsupported version {version}")
    _check_ndim(ndim, where)
    grid, offset = _unpack_axes(buf, _HEAD.size, ndim, where)

    def take(fmt: str):
        nonlocal offset
        s = struct.Struct(fmt)
        if offset + s.size > len(buf):
            raise SignalFileError(f"{where}: truncated at offset {offset}")
        vals = s.unpack_from(buf, offset)
        offset += s.size
        return vals

    def text(length: int) -> str:
        nonlocal offset
        raw = buf[offset : offset + length]
        offset += length
        try:
            return raw.decode()
        except UnicodeDecodeError as exc:
            raise SignalFileError(f"{where}: undecodable text at offset {offset - length}") from exc

    (alpha,) = take("<d")
    if not math.isfinite(alpha) or not TransformOrder(alpha).is_generic:
        raise SignalFileError(f"{where}: order {alpha} cannot carry coefficients")
    (name_len,) = take("<B")
    name = text(name_len)
    count, sdim = take("<IB")
    if sdim != ndim:
        raise SignalFileError(f"{where}: scale dimension {sdim} does not match grid {ndim}")
    log_step, a_min, a_max = take("<ddd")
    (signs_len,) = take("<B")
    signs = text(signs_len)
    vec_bytes = 8 * count * sdim
    if count == 0 or offset + vec_bytes + 8 * count > len(buf):
        raise SignalFileError(f"{where}: scale block of {count} vectors does not fit the file")
    vectors = np.frombuffer(buf, dtype="<f8", count=count * sdim, offset=offset).reshape(count, sdim)
    offset += vec_bytes
    weights = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
    offset += 8 * count
    try:
        scales = ScaleGrid(vectors.copy(), log_step=log_step, a_min=a_min, a_max=a_max, signs=signs)
        with np.errstate(all="ignore"):
            stored = scales.measure_weights()
    except (ValueError, OverflowError) as exc:
        raise SignalFileError(f"{where}: unusable scale block: {exc}") from exc
    if not np.allclose(weights, stored, rtol=1e-12, atol=0.0):
        raise SignalFileError(f"{where}: stored measure weights disagree with the scale block")
    total = count * math.prod(grid.shape)
    values = _deinterleave(buf[offset:], total, where).reshape((count,) + grid.shape)
    return CfrwtCoefficients(values, grid, scales, TransformOrder(alpha), name)


# ------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Plain key=value settings shared by the command front ends."""

    alpha: float = 0.9
    beta: float = 0.9 - math.pi / 2
    wavelet: str = "mexican_hat"
    a_min: float = 2.0**-4
    a_max: float = 2.0**4
    a_count: int = 64
    u_min: float = 1e-4
    u_max: float = 32.0
    nu: float = 0.5
    tolerance: float | None = None


_FLOAT_KEYS = {"alpha", "beta", "a_min", "a_max", "u_min", "u_max", "nu", "tolerance"}


def parse_run_config(path: str | os.PathLike | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    where = os.fspath(path)
    overrides: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise SignalFileError(f"{where}:{lineno}: expected key=value, got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            try:
                if key in _FLOAT_KEYS:
                    overrides[key] = float(raw)
                elif key == "a_count":
                    overrides[key] = int(raw)
                elif key == "threads":
                    # the FFTs run on one thread; the key stays valid so
                    # that existing config files keep working
                    if int(raw) < 1:
                        raise SignalFileError(f"{where}:{lineno}: threads must be at least 1")
                elif key == "wavelet":
                    overrides[key] = raw
                else:
                    raise SignalFileError(f"{where}:{lineno}: unknown config key {key!r}")
            except ValueError as exc:
                raise SignalFileError(f"{where}:{lineno}: bad value for {key}: {raw!r}") from exc
    cfg = replace(cfg, **overrides)
    _validate_config(cfg, where)
    return cfg


def _validate_config(cfg: RunConfig, where: str) -> None:
    if not (math.isfinite(cfg.alpha) and math.isfinite(cfg.beta)):
        raise SignalFileError(f"{where}: orders must be finite")
    if not 0.0 < cfg.a_min < cfg.a_max:
        raise SignalFileError(f"{where}: need 0 < a_min < a_max")
    if cfg.a_count < 1:
        raise SignalFileError(f"{where}: a_count must be at least 1")
    if not 0.0 < cfg.u_min < cfg.u_max:
        raise SignalFileError(f"{where}: need 0 < u_min < u_max")
    if cfg.nu < 0.0:
        raise SignalFileError(f"{where}: nu must be nonnegative")
    if cfg.tolerance is not None and cfg.tolerance <= 0.0:
        raise SignalFileError(f"{where}: tolerance must be positive")
