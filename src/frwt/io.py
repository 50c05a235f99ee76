"""File formats: binary signal files, CSV ingestion, coefficient files,
and the plain-text run configuration.

The binary layout is fixed little-endian with an explicit version so
fixtures are bit-exact across implementations.  Header: magic "FRWT",
version u16, dimension u8, then per axis start f64, step f64, count
u32.  The payload is interleaved re/im f64 in row-major order, which is
exactly the buffer of a contiguous little-endian complex128 ("<c16")
array: writers hand that array to the file as it is, and readers check
the bytes left after the header against the sample count before they
allocate, then read the payload into one complex128 array in a single
pass.  Coefficient files carry the same axis block for the shift grid
plus the transform order, wavelet name, scale vectors and their measure
weights.  Inputs, CSV included, must be regular files, since the binary
readers take the size from fstat; a pipe, a FIFO or a device is refused.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import struct
from dataclasses import dataclass, replace

import numpy as np

from .admissibility import FrequencyScan
from .cfrwt import CfrwtCoefficients
from .errors import InputFileError, OutputFileError, SignalFileError
from .frft import TransformOrder
from .grid import MAX_NDIM, AxisSpec, Grid, SampledSignal
from .scales import ScaleGrid, log_scale_grid

__all__ = [
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


def _payload(values: np.ndarray, where: str) -> np.ndarray:
    """values as the contiguous "<c16" array whose buffer is the file payload
    (no copy when they already are one)."""
    arr = np.ascontiguousarray(values, dtype="<c16")
    if not _finite_energy(arr.reshape(-1).view("<f8")):
        raise SignalFileError(f"{where}: not written, the payload holds non-finite samples or an overflowing energy")
    return arr


@contextlib.contextmanager
def _file_errors(path: str | os.PathLike, verb: str):
    """Turn an OSError raised while path is read (verb "read") or written
    ("write") into an InputFileError or OutputFileError, so that a failed
    write never reads as a failed read."""
    try:
        yield
    except OSError as exc:
        error = OutputFileError if verb == "write" else InputFileError
        raise error(f"cannot {verb} {os.fspath(path)}: {exc.strerror or exc}") from exc


def _open_nonblocking(path: str, flags: int) -> int:
    # opening a FIFO that has no writer would wait for one; _regular_size
    # refuses what this opens unless it is a regular file
    return os.open(path, flags | getattr(os, "O_NONBLOCK", 0))


def _regular_size(fh, where: str) -> int:
    """Size of the open file fh, refused unless it is a regular file."""
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):
        raise SignalFileError(f"{where}: not a regular file")
    return st.st_size


class _Cursor:
    """Sequential reads from an open regular file.  It tracks the offset and
    knows the file size, so each block is checked before it is read."""

    def __init__(self, fh, where: str) -> None:
        self.size = _regular_size(fh, where)
        self.fh = fh
        self.offset = 0

    def fits(self, nbytes: int) -> bool:
        return self.offset + nbytes <= self.size

    def read(self, nbytes: int) -> bytes:
        self.offset += nbytes
        return self.fh.read(nbytes)


def _read_payload(cur: _Cursor, count: int, where: str) -> np.ndarray:
    """The rest of the file as count complex128 samples, read in place into
    one array once its size is known to match."""
    remaining = cur.size - cur.offset
    if remaining != 16 * count:
        raise SignalFileError(f"{where}: payload holds {remaining} bytes, expected {16 * count}")
    values = np.empty(count, dtype="<c16")
    if cur.fh.readinto(values) != values.nbytes:
        raise SignalFileError(f"{where}: payload changed size while it was read")
    if not _finite_energy(values.view("<f8")):
        raise SignalFileError(f"{where}: payload holds non-finite samples or an overflowing energy")
    # a no-op on little-endian hosts
    return values.astype(np.complex128, copy=False)


def _pack_axes(grid: Grid) -> bytes:
    return b"".join(_AXIS.pack(ax.start, ax.step, ax.count) for ax in grid.axes)


def _read_axes(cur: _Cursor, ndim: int, where: str) -> Grid:
    axes = []
    for _ in range(ndim):
        if not cur.fits(_AXIS.size):
            raise SignalFileError(f"{where}: axis block truncated at offset {cur.offset}")
        start, step, count = _AXIS.unpack(cur.read(_AXIS.size))
        stop = start + (count - 1) * step
        # squared coordinates feed the chirps, so they must stay finite too
        if count < 2 or not (step > 0 and math.isfinite(start) and math.isfinite(stop * stop + start * start)):
            raise SignalFileError(f"{where}: invalid axis (start={start}, step={step}, count={count})")
        axes.append(AxisSpec(start, step, count))
    return Grid(tuple(axes))


def _check_ndim(ndim: int, where: str) -> None:
    if not 1 <= ndim <= MAX_NDIM:
        raise SignalFileError(f"{where}: dimension {ndim} outside 1..{MAX_NDIM}")


def write_signal(path: str | os.PathLike, signal: SampledSignal) -> None:
    payload = _payload(signal.values, os.fspath(path))
    with _file_errors(path, "write"), open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, FORMAT_VERSION, signal.ndim))
        fh.write(_pack_axes(signal.grid))
        fh.write(payload)


def read_signal(path: str | os.PathLike) -> SampledSignal:
    where = os.fspath(path)
    with _file_errors(path, "read"), open(path, "rb", opener=_open_nonblocking) as fh:
        cur = _Cursor(fh, where)
        if not cur.fits(_HEAD.size):
            raise SignalFileError(f"{where}: header truncated ({cur.size} bytes)")
        magic, version, ndim = _HEAD.unpack(cur.read(_HEAD.size))
        if magic != MAGIC:
            raise SignalFileError(f"{where}: bad magic {magic!r} at offset 0, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise SignalFileError(f"{where}: unsupported version {version}")
        _check_ndim(ndim, where)
        grid = _read_axes(cur, ndim, where)
        values = _read_payload(cur, math.prod(grid.shape), where)
    return SampledSignal(grid, values.reshape(grid.shape))


def write_csv(path: str | os.PathLike, signal: SampledSignal) -> None:
    if signal.ndim > 3:
        raise SignalFileError("CSV export supports at most 3 axes")
    header = ",".join(f"t{k + 1}" for k in range(signal.ndim)) + ",re,im"
    coords = [m.ravel() for m in signal.grid.meshgrid()]
    flat = signal.values.ravel()
    table = np.column_stack(coords + [flat.real, flat.imag])
    with _file_errors(path, "write"):
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
    with _file_errors(path, "read"), open(path, opener=_open_nonblocking) as fh:
        _regular_size(fh, where)
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
    payload = _payload(coeffs.values, os.fspath(path))
    with _file_errors(path, "write"), open(path, "wb") as fh:
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
    with _file_errors(path, "read"), open(path, "rb", opener=_open_nonblocking) as fh:
        cur = _Cursor(fh, where)
        if not cur.fits(_HEAD.size):
            raise SignalFileError(f"{where}: header truncated")
        magic, version, ndim = _HEAD.unpack(cur.read(_HEAD.size))
        if magic != COEFF_MAGIC:
            raise SignalFileError(f"{where}: bad magic {magic!r} at offset 0, expected {COEFF_MAGIC!r}")
        if version != FORMAT_VERSION:
            raise SignalFileError(f"{where}: unsupported version {version}")
        _check_ndim(ndim, where)
        grid = _read_axes(cur, ndim, where)

        def take(fmt: str):
            s = struct.Struct(fmt)
            if not cur.fits(s.size):
                raise SignalFileError(f"{where}: truncated at offset {cur.offset}")
            return s.unpack(cur.read(s.size))

        def text(length: int) -> str:
            start = cur.offset
            try:
                return cur.read(length).decode()
            except UnicodeDecodeError as exc:
                raise SignalFileError(f"{where}: undecodable text at offset {start}") from exc

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
        if count == 0 or not cur.fits(vec_bytes + 8 * count):
            raise SignalFileError(f"{where}: scale block of {count} vectors does not fit the file")
        vectors = np.frombuffer(cur.read(vec_bytes), dtype="<f8").reshape(count, sdim)
        weights = np.frombuffer(cur.read(8 * count), dtype="<f8")
        try:
            scales = ScaleGrid(vectors.copy(), log_step=log_step, a_min=a_min, a_max=a_max, signs=signs)
            with np.errstate(all="ignore"):
                stored = scales.measure_weights()
        except (ValueError, OverflowError) as exc:
            raise SignalFileError(f"{where}: unusable scale block: {exc}") from exc
        if not np.allclose(weights, stored, rtol=1e-12, atol=0.0):
            raise SignalFileError(f"{where}: stored measure weights disagree with the scale block")
        values = _read_payload(cur, count * math.prod(grid.shape), where)
    return CfrwtCoefficients(values.reshape((count,) + grid.shape), grid, scales, TransformOrder(alpha), name)


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

    def frequency_scan(self) -> FrequencyScan:
        """The admissibility scan over the band [u_min, u_max]."""
        return FrequencyScan(u_min=self.u_min, u_max=self.u_max)

    def scale_grid(self, ndim: int = 1) -> ScaleGrid:
        """The a_count-cell scale grid over [a_min, a_max], both signs per axis."""
        return log_scale_grid(self.a_min, self.a_max, self.a_count, ndim=ndim, signs="both")


_FLOAT_KEYS = {"alpha", "beta", "a_min", "a_max", "u_min", "u_max", "nu", "tolerance"}


def parse_run_config(path: str | os.PathLike | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    where = os.fspath(path)
    overrides: dict = {}
    with _file_errors(path, "read"), open(path) as fh:
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
    for key in sorted(_FLOAT_KEYS):
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            raise SignalFileError(f"{where}: {key} must be finite")
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
