"""File formats: binary signal files, CSV ingestion, coefficient files,
and the plain-text run configuration.

Signal ("FRWT") and coefficient ("FRWC") files share one fixed
little-endian container with an explicit version, so fixtures are
bit-exact across implementations: magic, version u16, dimension u8, per
axis start f64, step f64, count u32, then the format's own fields (none
for a signal; the order, wavelet catalog name, scale vectors and measure
weights for coefficients, whose axes are the shift grid), then the
payload.  The payload is interleaved re/im f64 in row-major order, which
is exactly the buffer of a contiguous little-endian complex128 ("<c16")
array: the writer hands that array to the file as it is, and the reader
checks each header field against the file size before it reads it, and
the payload against the sample count before it allocates, then reads it
into one complex128 array in a single pass.  Binary and CSV readers
alike build their grid with Grid and report its refusal as an invalid
axis block.  Inputs, CSV included, must be regular files, since the
readers take the size from fstat; a pipe, a FIFO or a device is refused.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .admissibility import FrequencyScan
from .cfrwt import CfrwtCoefficients
from .errors import InputFileError, OutputFileError, SignalFileError
from .frft import TransformOrder
from .grid import MAX_NDIM, AxisSpec, Grid, SampledSignal
from .scales import ScaleGrid, log_scale_grid
from .wavelets import CATALOG

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
_ORDER = struct.Struct("<d")
_LENGTH = struct.Struct("<B")
_SCALES = struct.Struct("<IBddd")


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


def _grid(axes: list[tuple[float, float, int]], where: str) -> Grid:
    """The grid on axes, (start, step, count) triples read from a file;
    what AxisSpec or Grid refuses makes the file malformed."""
    try:
        return Grid(tuple(AxisSpec(*ax) for ax in axes))
    except ValueError as exc:
        raise SignalFileError(f"{where}: invalid axis block {axes}: {exc}") from exc


@contextlib.contextmanager
def _file_errors(path: str | os.PathLike, verb: str):
    """Turn an OSError raised while path is read (verb "read") or written
    ("write") into an InputFileError or OutputFileError, so that a failed
    write never reads as a failed read, and text that is not UTF-8 into a
    SignalFileError."""
    try:
        yield
    except OSError as exc:
        error = OutputFileError if verb == "write" else InputFileError
        raise error(f"cannot {verb} {os.fspath(path)}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SignalFileError(f"{os.fspath(path)}: not UTF-8 text: {exc.reason}") from exc


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
        self.where = where
        self.offset = 0

    def read(self, nbytes: int) -> bytes:
        if self.offset + nbytes > self.size:
            raise SignalFileError(f"{self.where}: truncated at offset {self.offset}")
        self.offset += nbytes
        return self.fh.read(nbytes)

    def take(self, fields: struct.Struct) -> tuple:
        return fields.unpack(self.read(fields.size))

    def text(self, nbytes: int) -> str:
        start = self.offset
        try:
            return self.read(nbytes).decode()
        except UnicodeDecodeError as exc:
            raise SignalFileError(f"{self.where}: undecodable text at offset {start}") from exc

    def payload(self, count: int) -> np.ndarray:
        """The rest of the file as count complex128 samples, read in place
        into one array once its size is known to match."""
        remaining = self.size - self.offset
        if remaining != 16 * count:
            raise SignalFileError(f"{self.where}: payload holds {remaining} bytes, expected {16 * count}")
        values = np.empty(count, dtype="<c16")
        if self.fh.readinto(values) != values.nbytes:
            raise SignalFileError(f"{self.where}: payload changed size while it was read")
        if not _finite_energy(values.view("<f8")):
            raise SignalFileError(f"{self.where}: payload holds non-finite samples or an overflowing energy")
        # a no-op on little-endian hosts
        return values.astype(np.complex128, copy=False)


@contextlib.contextmanager
def _container(path: str | os.PathLike, magic: bytes):
    """Open the binary file at path and read its container header; yields
    the cursor, left at the format's own fields, and the grid."""
    where = os.fspath(path)
    with _file_errors(path, "read"), open(path, "rb", opener=_open_nonblocking) as fh:
        cur = _Cursor(fh, where)
        found, version, ndim = cur.take(_HEAD)
        if found != magic:
            raise SignalFileError(f"{where}: bad magic {found!r} at offset 0, expected {magic!r}")
        if version != FORMAT_VERSION:
            raise SignalFileError(f"{where}: unsupported version {version}")
        # bounds the number of axis blocks read
        if not 1 <= ndim <= MAX_NDIM:
            raise SignalFileError(f"{where}: dimension {ndim} outside 1..{MAX_NDIM}")
        yield cur, _grid([cur.take(_AXIS) for _ in range(ndim)], where)


def _write_container(path: str | os.PathLike, magic: bytes, grid: Grid, head: bytes, values: np.ndarray) -> None:
    """Write the container: header and axis block of grid, then head (the
    format's own fields), then values as the payload."""
    payload = _payload(values, os.fspath(path))
    axes = b"".join(_AXIS.pack(ax.start, ax.step, ax.count) for ax in grid.axes)
    with _file_errors(path, "write"), open(path, "wb") as fh:
        fh.write(_HEAD.pack(magic, FORMAT_VERSION, grid.ndim) + axes + head)
        fh.write(payload)


def write_signal(path: str | os.PathLike, signal: SampledSignal) -> None:
    _write_container(path, MAGIC, signal.grid, b"", signal.values)


def read_signal(path: str | os.PathLike) -> SampledSignal:
    with _container(path, MAGIC) as (cur, grid):
        values = cur.payload(grid.size)
    return SampledSignal(grid, values.reshape(grid.shape))


def write_csv(path: str | os.PathLike, signal: SampledSignal) -> None:
    header = ",".join(f"t{k + 1}" for k in range(signal.ndim)) + ",re,im"
    coords = [m.ravel() for m in signal.grid.meshgrid()]
    flat = _payload(signal.values, os.fspath(path)).ravel()
    table = np.column_stack(coords + [flat.real, flat.imag])
    with _file_errors(path, "write"):
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def _axis_from_column(col: np.ndarray, where: str, k: int) -> tuple[float, float, int]:
    points = np.unique(col)
    if points.size == 1:
        raise SignalFileError(f"{where}: axis t{k + 1} has a single coordinate")
    with np.errstate(over="ignore"):  # an infinite step is AxisSpec's to refuse
        steps = np.diff(points)
    step = float(steps[0])
    if not np.allclose(steps, step, rtol=1e-9, atol=0.0):
        raise SignalFileError(f"{where}: axis t{k + 1} coordinates are not uniformly spaced")
    return float(points[0]), step, points.size


def read_csv(path: str | os.PathLike) -> SampledSignal:
    where = os.fspath(path)
    with _file_errors(path, "read"), open(path, encoding="utf-8", opener=_open_nonblocking) as fh:
        _regular_size(fh, where)
        header = fh.readline().strip()
        try:
            with warnings.catch_warnings():
                # an empty body is refused below, not warned about
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except UnicodeDecodeError:
            raise  # a ValueError too; _file_errors reports it
        except ValueError as exc:
            raise SignalFileError(f"{where}: {exc}") from exc
    if table.size == 0:
        raise SignalFileError(f"{where}: no data rows")
    columns = header.split(",")
    if len(columns) < 3 or columns[-2:] != ["re", "im"]:
        raise SignalFileError(f"{where}: header must be t1[,t2[,t3]],re,im, got {header!r}")
    ndim = len(columns) - 2
    if table.shape[1] != ndim + 2:
        raise SignalFileError(f"{where}: {table.shape[1]} columns for header {header!r}")
    if not np.all(np.isfinite(table[:, :ndim])):
        raise SignalFileError(f"{where}: non-finite coordinates")
    if not _finite_energy(table[:, ndim:].ravel()):
        raise SignalFileError(f"{where}: samples hold non-finite values or an overflowing energy")
    grid = _grid([_axis_from_column(table[:, k], where, k) for k in range(ndim)], where)
    shape = grid.shape
    if table.shape[0] != grid.size:
        raise SignalFileError(
            f"{where}: {table.shape[0]} rows cannot fill a {shape} grid"
        )
    values = np.full(shape, np.nan + 0j, dtype=np.complex128)
    filled = np.zeros(shape, dtype=bool)
    idx = []
    for k, ax in enumerate(grid.axes):
        j = np.rint((table[:, k] - ax.start) / ax.step).astype(int)
        if np.any((j < 0) | (j >= ax.count)):
            raise SignalFileError(f"{where}: coordinate outside axis t{k + 1}")
        idx.append(j)
    # part by part: re + 1j * im would turn a -0.0 real part into +0.0
    values.real[tuple(idx)] = table[:, ndim]
    values.imag[tuple(idx)] = table[:, ndim + 1]
    filled[tuple(idx)] = True
    if not filled.all():
        raise SignalFileError(f"{where}: duplicate or missing grid rows")
    return SampledSignal(grid, values)


def _usable_log_step(log_step: float) -> bool:
    """A file's log step must be finite and nonnegative (a negative one negates
    every measure weight); writers refuse what readers refuse."""
    return 0.0 <= log_step < math.inf


def write_coefficients(path: str | os.PathLike, coeffs: CfrwtCoefficients) -> None:
    """Write coeffs; the file stores its wavelet by catalog name, so a field
    taken with any other wavelet is refused, as the reader would refuse or
    replace it."""
    if CATALOG.get(coeffs.wavelet.name) != coeffs.wavelet:
        raise SignalFileError(f"{os.fspath(path)}: not written, wavelet {coeffs.wavelet.name!r} is not a catalog entry")
    scales = coeffs.scales
    if not _usable_log_step(scales.log_step):
        raise SignalFileError(f"{os.fspath(path)}: not written, scale log step {scales.log_step} is negative or not finite")
    name = coeffs.wavelet.name.encode()
    signs = scales.signs.encode()
    head = b"".join([
        _ORDER.pack(coeffs.order.alpha),
        _LENGTH.pack(len(name)) + name,
        _SCALES.pack(scales.count, scales.ndim, scales.log_step, scales.a_min, scales.a_max),
        _LENGTH.pack(len(signs)) + signs,
        np.ascontiguousarray(scales.vectors, dtype="<f8").tobytes(),
        np.asarray(scales.measure_weights(), dtype="<f8").tobytes(),
    ])
    _write_container(path, COEFF_MAGIC, coeffs.b_grid, head, coeffs.values)


def read_coefficients(path: str | os.PathLike) -> CfrwtCoefficients:
    with _container(path, COEFF_MAGIC) as (cur, grid):
        where = cur.where
        (alpha,) = cur.take(_ORDER)
        if not math.isfinite(alpha) or not TransformOrder(alpha).is_generic:
            raise SignalFileError(f"{where}: order {alpha} cannot carry coefficients")
        name = cur.text(*cur.take(_LENGTH))
        # looked up at read time, so a replaced catalog entry is the one used
        psi = CATALOG.get(name)
        if psi is None:
            raise SignalFileError(f"{where}: unknown wavelet {name!r}")
        count, sdim, log_step, a_min, a_max = cur.take(_SCALES)
        if sdim != grid.ndim:
            raise SignalFileError(f"{where}: scale dimension {sdim} does not match grid {grid.ndim}")
        if not _usable_log_step(log_step):
            raise SignalFileError(f"{where}: scale log step {log_step} is negative or not finite")
        signs = cur.text(*cur.take(_LENGTH))
        vectors = np.frombuffer(cur.read(8 * count * sdim), dtype="<f8").reshape(count, sdim)
        weights = np.frombuffer(cur.read(8 * count), dtype="<f8")
        try:
            scales = ScaleGrid(vectors.copy(), log_step=log_step, a_min=a_min, a_max=a_max, signs=signs)
            with np.errstate(all="ignore"):
                stored = scales.measure_weights()
        except (ValueError, OverflowError) as exc:
            raise SignalFileError(f"{where}: unusable scale block: {exc}") from exc
        if not np.allclose(weights, stored, rtol=1e-12, atol=0.0):
            raise SignalFileError(f"{where}: stored measure weights disagree with the scale block")
        values = cur.payload(count * grid.size)
    return CfrwtCoefficients(values.reshape((count,) + grid.shape), grid, scales, TransformOrder(alpha), psi)


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

    def scale_grid(self, ndim: int = 1, samples: int = 1) -> ScaleGrid:
        """The a_count-cell scale grid over [a_min, a_max], both signs per axis,
        for a field of `samples` samples a vector; refused before it is built
        past the scale vector or field limit."""
        count = (2 * self.a_count) ** ndim
        if count > _SCALE_VECTORS_MAX:
            raise SignalFileError(f"config: (2 a_count)^{ndim} = {count} scale vectors, more than {_SCALE_VECTORS_MAX}")
        if count * samples > _FIELD_SAMPLES_MAX:
            raise SignalFileError(f"config: {count} scale vectors x {samples} samples, more than {_FIELD_SAMPLES_MAX} coefficients")
        return log_scale_grid(self.a_min, self.a_max, self.a_count, ndim=ndim, signs="both")


_FLOAT_KEYS = {"alpha", "beta", "a_min", "a_max", "u_min", "u_max", "nu", "tolerance"}
# the most magnitude cells per scale sign a config may ask for, scale vectors
# (2 a_count)^ndim, and samples of a coefficient field (1 GiB of complex128)
_A_COUNT_MAX = 4096
_SCALE_VECTORS_MAX = 1 << 16
_FIELD_SAMPLES_MAX = 1 << 26
# the admissibility scan's band: its lowest end, whose halvings must stay
# positive, and its widest ratio (40 decades: about 10 700 points at the
# scan's 256 per decade)
_U_MIN_FLOOR = 1e-300
_BAND_RATIO_MAX = 1e40


def parse_run_config(path: str | os.PathLike | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    where = os.fspath(path)
    overrides: dict = {}
    with _file_errors(path, "read"), open(path, encoding="utf-8") as fh:
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
    if not math.isfinite(cfg.a_max / cfg.a_min):
        raise SignalFileError(f"{where}: a_max / a_min overflows; need a finite ratio")
    if not 1 <= cfg.a_count <= _A_COUNT_MAX:
        raise SignalFileError(f"{where}: a_count must be between 1 and {_A_COUNT_MAX}")
    if not 0.0 < cfg.u_min < cfg.u_max:
        raise SignalFileError(f"{where}: need 0 < u_min < u_max")
    if cfg.u_min < _U_MIN_FLOOR or cfg.u_max / cfg.u_min > _BAND_RATIO_MAX:
        raise SignalFileError(f"{where}: need u_min >= {_U_MIN_FLOOR:g} and u_max / u_min <= {_BAND_RATIO_MAX:g}")
    if cfg.nu < 0.0:
        raise SignalFileError(f"{where}: nu must be nonnegative")
    if cfg.tolerance is not None and cfg.tolerance <= 0.0:
        raise SignalFileError(f"{where}: tolerance must be positive")
