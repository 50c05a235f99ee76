"""Chirped wavelet coefficient transform, its energy identities,
reconstruction, and the reproducing kernel.

Coefficients are inner products of the signal against daughters over a
(scale vector, shift) grid whose shifts are the signal's own samples.
Two evaluation routes exist: a direct route building per-scale profile
matrices (the quadratic-cost oracle) and a fast route that realizes the
same discrete sums through padded FFT correlations.  Both routes share
the quadrature weights, so they agree to rounding, not merely to
discretization order.

The fast route's taps depend only on the wavelet, the grid axis and one
scale component.  The lags are symmetric, so the taps of -a are those
of +a reversed, bit for bit: the profile is evaluated once per
magnitude, and an even profile's palindromic row serves both signs with
one spectrum (an odd profile's two rows are kept apart, since negation
need not keep the sign of an exact zero).  Each axis's table of tap
spectra belongs to the pass plan, whose build computes each distinct
table once: the equal axes of a grid share one table.

A fast pass, analysis or synthesis, runs from one chunk plan: blocks of
the shared row-block rule (frft._row_blocks, one row per scale vector's
largest padded intermediate), at most two reused padded buffers, and
each axis's lag FFT length.  Every axis is then one padded FFT
convolution (frft._fft_convolve) whose kernel rows are slices of the
axis's tap table.

Analysis computes each distinct row once.  A coefficient row depends on
the scale vector only through its tap row on each axis, and the axis-k
stage only through the rows of axes 1..k, so axis k runs once per
distinct prefix of tap rows, on its parent prefix's row.  Each distinct
coefficient row is normalized and chirped into the first of its scale
vectors' slots and copied into the others: with both signs, an even
wavelet's 2-D pass over 16 x 16 signed scale vectors runs 8 + 64 rows,
not 2 x 256.  The blocks hold distinct rows, not scale vectors.  What
analysis does apart from the signal (tap tables, the runs each axis
convolves and their buffer offsets, the writes that normalize distinct
rows into their slots, the twin copies and the reciprocal scale norms)
is one plan, memoized per wavelet, grid, chunk length and scale set (see
frwt.memo); a call runs the convolutions.  Both passes
take the grid's quadrature weights and +-cot chirps from the memo too.

Synthesis integrates over the scale vectors as well.  The DFT is
linear, so reconstruct adds the scale vectors' padded spectra along the
last grid axis, in scale order, and inverts that sum once per call
instead of once per scale vector; the result does not depend on how the
scale vectors are chunked.  Within a chunk, scale vectors whose
synthesis tap rows, factors and coefficient rows agree bit for bit are
twins: each distinct row is convolved once and its product row copied
into its twins' rows of the chunk's buffer, so the in-order sum sees one
row per scale vector, bit for bit.  An even synthesis wavelet on an even
analysis wavelet's field pairs the +-a rows of every chunk that holds
both signs.  What synthesis does apart from the signal (tap tables and
rows, factors, twin candidates and each chunk's pieces) is one
plan too, so a stream of fields on one scale grid builds it once; a call
compares the candidates' coefficient rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import frft
from .admissibility import (
    AdmissibilityReport,
    FrequencyScan,
    _spectral_points,
    _weighted_profile,
    cross_admissibility,
)
from .errors import GridMismatch, InadmissibleWavelet, ZeroCrossAdmissibility
from .frft import (
    TransformOrder,
    _as_order,
    _chirp,
    _fft_convolve,
    _grid_chirp,
    _grid_weights,
    _next_fast_len,
    _row_blocks,
    _short_buffers,
    c_alpha,
    frft_fast,
)
from .grid import AxisSpec, Grid, SampledSignal, _exact_sum, grids_close, inner_product, l2_norm
from .memo import memoized
from .report import VerificationReport, _ratio
from .scales import ScaleGrid, _measure_weights
from .wavelets import WaveletSpec, make_daughter

__all__ = [
    "CfrwtCoefficients",
    "cfrwt_direct",
    "cfrwt_fast",
    "plancherel_check",
    "inner_product_relation_check",
    "reconstruct",
    "reproducing_kernel",
    "range_membership_residual",
    "truncated_coverage",
]

CROSS_ZERO_TOL = 1e-8


@dataclass(frozen=True)
class CfrwtCoefficients:
    """Coefficient array over a scale grid and a shift grid, taken with
    the analysing wavelet `wavelet`.

    values[s] holds the coefficients of scale vector s over the shift
    grid, so values has shape (scale count,) + b_grid.shape.
    """

    values: np.ndarray
    b_grid: Grid
    scales: ScaleGrid
    order: TransformOrder
    wavelet: WaveletSpec

    def __post_init__(self) -> None:
        expected = (self.scales.count,) + self.b_grid.shape
        if self.values.shape != expected:
            raise ValueError(f"coefficient shape {self.values.shape} != {expected}")
        if self.b_grid.ndim != self.scales.ndim:
            raise ValueError("shift grid and scale grid dimensions differ")

    def measure_weights(self) -> np.ndarray:
        """Per-(scale, shift) weights realizing the measure db da/|a|_p^2."""
        w_a = self.scales.measure_weights()
        w_b = self.b_grid.weights()
        return w_a.reshape((-1,) + (1,) * self.b_grid.ndim) * w_b

    def energy(self) -> float:
        """Total coefficient energy under the measure db da/|a|_p^2;
        math.inf when it is not representable."""
        return _exact_sum(self._scale_contributions())

    def last_octave_fraction(self) -> float:
        """Share of energy carried by scale vectors touching the top octave.

        The identities hold on the unbounded scale measure; this is the
        truncation honesty line reported by every integral check.  It is
        nan when the energy is not representable.
        """
        mags = np.abs(self.scales.vectors)
        outer = np.any(mags > self.scales.a_max / 2, axis=1)
        contrib = self._scale_contributions()
        total = _exact_sum(contrib)
        if total == 0.0:
            return 0.0
        if math.isinf(total):
            return math.nan
        return _exact_sum(contrib[outer]) / total

    def _scale_contributions(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            flat = (np.abs(self.values) ** 2 * self.b_grid.weights()).reshape(self.scales.count, -1)
            return self.scales.measure_weights() * flat.sum(axis=1)


def _require_same_ndim(f: SampledSignal, scales: ScaleGrid) -> None:
    if f.ndim != scales.ndim:
        raise ValueError("signal and scale grid dimensions differ")


def _chirped_input(f: SampledSignal, order: TransformOrder) -> np.ndarray:
    # quadrature weights and the +i/2 |t|^2 cot chirp of the conjugated
    # daughter are folded in once, shared by both evaluation routes
    return f.values * _grid_weights(f.grid) * _grid_chirp(f.grid, order.cot)


def cfrwt_direct(
    f: SampledSignal,
    psi: WaveletSpec,
    order: TransformOrder | float,
    scales: ScaleGrid,
) -> CfrwtCoefficients:
    """Coefficients over the signal's own grid by explicit per-scale inner
    products.

    Cost is quadratic in grid size per scale; this is the oracle route.
    """
    order = _as_order(order)
    _require_same_ndim(f, scales)
    chi = _chirped_input(f, order)
    t_axes = f.grid.axis_points()
    out = np.empty((scales.count,) + f.grid.shape, dtype=np.complex128)
    for s, a_vec in enumerate(scales.vectors):
        acc = chi
        for ax, (t_pts, a_i) in enumerate(zip(t_axes, a_vec)):
            # mat[k, j] = conj(psi((t_j - t_k) / a_i)); contract the t_j axis
            mat = np.conj(psi.profile((t_pts[None, :] - t_pts[:, None]) / a_i))
            acc = np.moveaxis(np.tensordot(mat, acc, axes=([1], [ax])), 0, ax)
        out[s] = acc / math.sqrt(np.prod(np.abs(a_vec)))
    out *= _chirp(f.grid.radius_sq(), -order.cot)
    return CfrwtCoefficients(out, f.grid, scales, order, psi)


def _tap_spectrum(
    psi: WaveletSpec, analysis: bool, step: float, n: int, pad: int, mags: bytes
) -> tuple[np.ndarray, np.ndarray]:
    """Table of length-pad lag-tap FFTs for the ascending scale magnitudes
    mags on one axis, one row per distinct tap row, and the table rows of
    -m and +m for each magnitude m.

    Taps are psi(x) for synthesis and conj(psi(-x)) for analysis, at
    x = lag step / a over lags -(n - 1)..n - 1.  They depend on neither
    the signal nor the order, so a stream of signals on one grid and
    scale set computes them once.  The lags are symmetric, so the taps of
    -m are those of +m reversed, bit for bit: the profile is evaluated
    once per magnitude.  A palindromic row serves both signs with one
    spectrum; any other row gets one spectrum per sign.  (An odd
    profile's -m row is the negated +m row, but negation need not keep
    the sign of an exact zero, so it is not shared.)

    The -m rows of their own come first, in descending magnitude, then
    the +m rows in ascending magnitude: a signed scale axis in ascending
    order reads the table as one or two strided runs.
    """
    lags = np.arange(-(n - 1), n) * step
    plus, odd = [], []
    for m in np.frombuffer(mags).tolist():
        # one magnitude at a time keeps the profile's temporaries small
        # enough to be reused; sum_j chi_j conj(psi((j - k) dt / a)) is a
        # lag sum against conj(psi(-x))
        taps = np.conj(psi.profile(-(lags / m))) if analysis else psi.profile(lags / m)
        plus.append(taps)
        odd.append(not np.array_equal(taps, taps[::-1]))
    own = np.flatnonzero(odd)[::-1]
    rows = np.empty((len(plus), 2), dtype=np.intp)
    rows[:, 1] = np.arange(own.size, own.size + len(plus))
    rows[:, 0] = rows[:, 1]
    rows[own, 0] = np.arange(own.size)
    table = np.empty((own.size + len(plus), pad), dtype=np.complex128)
    for (minus, positive), taps in zip(rows, plus):
        table[minus, : 2 * n - 1] = taps[::-1]
        table[positive, : 2 * n - 1] = taps
    table[:, 2 * n - 1 :] = 0.0
    np.fft.fft(table, axis=1, out=table)
    return table, rows


def _tap_layout(
    psi: WaveletSpec, analysis: bool, grid: Grid, pads: tuple[int, ...], vectors: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per grid axis, the tap spectrum table of the scale vectors'
    components on it, over their distinct magnitudes, and each component's
    table row (equal rows, equal taps).  Equal axes share one table."""
    built, layout = {}, []
    for axis, pad, col in zip(grid.axes, pads, vectors.T):
        mags = np.abs(col)
        ranked = np.sort(mags)
        distinct = ranked[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
        key = (axis.step, axis.count, pad, distinct.tobytes())
        if key not in built:
            built[key] = _tap_spectrum(psi, analysis, *key)
        table, rows = built[key]
        layout.append((table, rows[distinct.searchsorted(mags), (col > 0).view(np.int8)]))
    return layout


def _runs(fixed: np.ndarray | None, *stepped: np.ndarray) -> list[tuple[int, int]]:
    """Maximal position runs (lo, hi) over which fixed, if given, stays
    constant and every sequence in stepped moves by one stride, so that a
    run is one basic slice of each."""
    size = (stepped[0] if stepped else fixed).size
    cuts = set() if fixed is None else set((fixed[1:] != fixed[:-1]).nonzero()[0].tolist())
    bends = set()
    for seq in stepped:
        # a bend at j: the stride into j differs from the stride out of it
        stride = seq[1:] - seq[:-1]
        bends.update((stride[1:] != stride[:-1]).nonzero()[0].tolist())
    if not (cuts or bends):
        return [(0, size)] if size else []
    cuts = {j + 1 for j in cuts}
    bends = {j + 1 for j in bends}
    runs, lo = [], 0
    for j in sorted(cuts | bends):
        # a cut at j starts a run there; a bend ends the run after j,
        # unless the run starts at j
        if j > lo:
            end = j if j in cuts else j + 1
            runs.append((lo, end))
            lo = end
    if lo < size:
        runs.append((lo, size))
    return runs


def _piece_spec(row: np.ndarray, at: np.ndarray | None = None) -> tuple[tuple[slice, slice], ...]:
    """The table rows row, in order, as (positions, rows) pieces, each rows
    a basic slice of the table; at, if given, picks the rows read and
    gives their positions, else they are 0, 1, ..."""
    if at is None:
        return tuple((slice(a, b), _span(row, a, b)) for a, b in _runs(None, row))
    row = row[at]
    return tuple((_span(at, a, b), _span(row, a, b)) for a, b in _runs(None, row, at))


def _kernel(table: np.ndarray, spec: tuple[tuple[slice, slice], ...]) -> list[tuple[slice, np.ndarray]]:
    """The (positions, spectra) pieces for _fft_convolve of the pieces
    spec (see _piece_spec) of table."""
    return [(at, table[rows]) for at, rows in spec]


def _twins(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The classes of positions equal in every key, ordered by keys[0],
    then keys[1] and so on: keys[0] at the first position of each class,
    and that position; then every later position of a class, and the
    first position of its class."""
    ranked = np.lexsort(keys[::-1])
    fresh = np.zeros(ranked.size, dtype=bool)
    fresh[0] = True
    for key in keys:
        key = key[ranked]
        fresh[1:] |= key[1:] != key[:-1]
    twin = ~fresh
    first = ranked[fresh]
    return keys[0][first], first, ranked[twin], first[fresh.cumsum()[twin] - 1]


def _row_keys(taps: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, list[int]]:
    """One mixed-radix key per scale vector from its tap table rows on
    every axis (equal keys, equal tap rows), and each axis's radix."""
    radix = [len(table) for table, _ in taps]
    key = taps[0][1]
    for (_, rows), base in zip(taps[1:], radix[1:]):
        key = key * base + rows
    return key, radix


def _span(seq: np.ndarray, lo: int, hi: int) -> slice:
    """The basic slice of the strided run seq[lo:hi]; a run of one repeated
    value is that one element, which broadcasts."""
    first = int(seq[lo])
    stride = int(seq[lo + 1] - seq[lo]) if hi - lo > 1 else 1
    if stride == 0:
        return slice(first, first + 1)
    stop = first + stride * (hi - lo)
    return slice(first, stop if stop >= 0 else None, stride)


def _chunk_plan(grid: Grid, count: int) -> tuple[tuple[slice, ...], list[np.ndarray], tuple[int, ...]]:
    """Chunks of count scale vectors, padded buffers and per-axis lag FFT
    lengths for one coefficient pass over grid.

    Axis k correlates over lags -(n_k - 1)..n_k - 1, so any FFT length
    pads[k] >= 2 n_k - 1 leaves its n_k central sums unaliased.  A chunk
    holds as many scale vectors as fit frft._CHUNK_BYTES of their largest
    padded intermediate; analysis runs its distinct rows in blocks of the
    first chunk's length.  The buffers, sized for the first (largest)
    chunk, are one per grid axis, at most two, since each axis reads the
    previous axis's buffer; they are the only part made on every call.
    """
    pads = tuple(_next_fast_len(2 * ax.count - 1) for ax in grid.axes)
    chunks, padded = _chunk_layout(grid, count, pads, frft._CHUNK_BYTES)
    work = [np.empty(chunks[0].stop * padded, dtype=np.complex128) for _ in range(min(2, grid.ndim))]
    return chunks, work, pads


@functools.lru_cache(maxsize=64)
def _chunk_layout(grid: Grid, count: int, pads: tuple[int, ...], chunk_bytes: int) -> tuple[tuple[slice, ...], int]:
    """_chunk_plan's chunks and the elements of one scale vector's largest
    padded intermediate, kept by value.  chunk_bytes, frft._CHUNK_BYTES
    at the call, is part of the key only: frft._row_blocks reads it."""
    padded = max(grid.size // ax.count * pad for ax, pad in zip(grid.axes, pads))
    return tuple(_row_blocks(count, padded)), padded


def _axis_correlate(
    values: np.ndarray,
    ax: int,
    n: int,
    kernel: list[tuple[slice, np.ndarray]],
    buf: np.ndarray | None,
    weights: tuple[np.ndarray, ...] = (),
    acc: np.ndarray | None = None,
    invert: bool = True,
    twins: tuple[list, list] | None = None,
) -> np.ndarray:
    """Lag sums out[s, .., k, ..] = sum_j values[s, .., j, ..] taps_s[k - j + n - 1]
    along grid axis ax, one output slice per row s of kernel, the tap
    spectra of that axis as (rows, spectra (rows, pad)) pieces.

    values carries a leading scale axis (length one broadcasts against
    every kernel row).  The axis is one length-pad FFT convolution in the
    flat buffer buf, which must not hold values; the result is a view
    into it.  weights multiply values as they are padded; with acc the
    rows are summed onto acc (see _fft_convolve), and invert says whether
    to invert it; twins convolves only some rows of values (see
    _fft_convolve).
    """
    shape = [-1] + [1] * (values.ndim - 1)
    shape[ax + 1] = kernel[0][1].shape[1]
    pieces = [(rows, spectra.reshape(shape)) for rows, spectra in kernel]
    full = _fft_convolve(values, pieces, (ax + 1,), buf, weights, acc, invert, twins)
    return full[(slice(None),) * (ax + 1) + (slice(n - 1, 2 * n - 1),)]


def _scale_correlate(
    values: np.ndarray,
    grid: Grid,
    kernels: list[list[tuple[slice, np.ndarray]]],
    work: list[np.ndarray | None],
    weights: tuple[np.ndarray, ...] = (),
    acc: np.ndarray | None = None,
    invert: bool = True,
    twins: tuple[list, list] | None = None,
) -> np.ndarray:
    """_axis_correlate along every grid axis in turn, against kernels[ax]
    on axis ax, in the buffer work[ax % 2].  weights apply on the first
    axis, acc, invert and the copies of twins on the last; every axis
    convolves only the live rows of twins (see _fft_convolve)."""
    for ax, (axis_spec, kernel) in enumerate(zip(grid.axes, kernels)):
        on_last = ax == grid.ndim - 1
        values = _axis_correlate(
            values,
            ax,
            axis_spec.count,
            kernel,
            work[ax % 2],
            weights,
            acc if on_last else None,
            invert or not on_last,
            twins if on_last or twins is None else (twins[0], ()),
        )
        weights = ()
    return values


def _scale_norms(vectors: np.ndarray) -> np.ndarray:
    return np.sqrt(np.prod(np.abs(vectors), axis=1))


@dataclass(frozen=True)
class _AnalysisPlan:
    """The signal-free part of a fast analysis pass over one grid, chunk
    length and scale set with one wavelet, built once and shared by every
    call (see _analysis_plan); its arrays are read-only.

    tables holds each axis's tap spectrum table.  blocks holds, per block
    of distinct coefficient rows, each axis's runs and the block's writes.  A run ((k, part), pieces, offset)
    convolves the row part of run k of the previous axis (of the chirped
    input on the first axis) with the tap rows pieces (see _piece_spec),
    into the axis's buffer at offset.  A write (k, part, slots) normalizes
    the rows part of the last axis's run k into the scale vectors slots.
    reciprocals holds 1 / sqrt|a| per scale vector, shaped (count, 1, ...,
    1), by which a write multiplies: numpy divides complex x by real n with
    Smith's algorithm, which computes x * (1 / n), so the product has the
    bits of the quotient but for the signs of exact zeros.  copies holds
    the (twins, twin_of) slice pairs over which the first slot of each
    distinct row is copied to its twins.
    """

    tables: tuple[np.ndarray, ...]
    blocks: tuple
    reciprocals: np.ndarray
    copies: tuple[tuple[slice, slice], ...]


@memoized
def _analysis_plan(psi: WaveletSpec, grid: Grid, pads: tuple[int, ...], step: int, vectors: bytes) -> _AnalysisPlan:
    """The plan of a fast analysis pass of psi over grid with lag FFT
    lengths pads, in blocks of step distinct coefficient rows, over the
    scale vectors given as bytes.

    Memoized by value, as _synthesis_plan is.

    A coefficient row is fixed by its tap table rows, one mixed-radix key
    per scale vector; the distinct keys, ascending, are the rows computed,
    each into the first scale vector holding it.  In a block, axis k runs once
    per distinct prefix of tap rows through it, on its parent prefix's
    row, so siblings share one convolution.
    """
    vectors = np.frombuffer(vectors).reshape(-1, grid.ndim)
    taps = _tap_layout(psi, True, grid, pads, vectors)
    key, radix = _row_keys(taps)
    distinct, first, twins, twin_of = _twins(key)
    row_elems = [grid.size // axis.count * pad for axis, pad in zip(grid.axes, pads)]
    blocks = []
    for lo in range(0, distinct.size, step):
        block = distinct[lo : lo + step]
        # the (run, row) of each output row of the previous axis
        levels, rows_at = [], [(0, 0)]
        opens = np.zeros(len(block), dtype=bool)
        opens[0] = True
        for ax in range(grid.ndim):
            prefix = block // math.prod(radix[ax + 1 :])
            owner = opens.cumsum() - 1
            np.not_equal(prefix, np.concatenate(([-1], prefix[:-1])), out=opens)
            heads = opens.nonzero()[0]
            owner = owner[heads]
            row = prefix[heads] % radix[ax]
            runs, offset = _runs(owner), 0
            level = []
            for a, b in runs:
                k, i = rows_at[owner[a]]
                level.append(((k, slice(i, i + 1)), _piece_spec(row[a:b]), offset))
                offset += (b - a) * row_elems[ax]
            levels.append(tuple(level))
            rows_at = [(k, i) for k, (a, b) in enumerate(runs) for i in range(b - a)]
        # the last axis's rows are the block's distinct rows, in order
        writes = []
        for k, (a, b) in enumerate(runs):
            slots = first[lo + a : lo + b]
            writes.extend((k, slice(c, d), _span(slots, c, d)) for c, d in _runs(None, slots))
        blocks.append((tuple(levels), tuple(writes)))
    reciprocals = 1.0 / _scale_norms(vectors).reshape((-1,) + (1,) * grid.ndim)
    copies = tuple((_span(twins, a, b), _span(twin_of, a, b)) for a, b in _runs(None, twin_of, twins))
    return _AnalysisPlan(tuple(table for table, _ in taps), tuple(blocks), reciprocals, copies)


@dataclass(frozen=True)
class _SynthesisPlan:
    """The signal-free part of a synthesis pass over one grid, chunk
    length and scale set with one wavelet, built once and shared by every
    call (see _synthesis_plan); its arrays are read-only.

    tables holds each axis's tap spectrum table.  factors holds each scale
    vector's measure weight / sqrt|a|, shaped (count, 1, ..., 1).  steps
    holds what each chunk runs if every twin candidate is a twin (see
    _synthesis_steps).  twins and twin_of are those candidates, each a
    candidate twin of the scale vector twin_of; compare holds the runs
    (lo, hi, twins span, twin_of span) over which a call compares their
    coefficient rows; and taps holds each axis's table rows, from which a
    call whose candidates are not all twins builds its own steps.
    """

    tables: tuple[np.ndarray, ...]
    factors: np.ndarray
    steps: tuple
    twins: np.ndarray
    twin_of: np.ndarray
    compare: tuple[tuple[int, int, slice, slice], ...]
    taps: tuple[np.ndarray, ...]


@memoized
def _synthesis_plan(
    phi: WaveletSpec,
    grid: Grid,
    pads: tuple[int, ...],
    step: int,
    vectors: bytes,
    log_step: float,
    log_sign: float,
) -> _SynthesisPlan:
    """The plan of a synthesis pass of phi over grid with lag FFT lengths
    pads, in chunks of step scale vectors, over the scale vectors given as
    bytes with the log spacing log_step, from which the build computes
    their measure weights as ScaleGrid.measure_weights does.  log_sign,
    the sign of log_step, is part of the key only: a log_step of -0.0
    equals 0.0 but gives its weights other signs.

    Memoized by value: an equal scale set is a hit, and one edited in
    place a miss.

    Twin candidates are the scale vectors of one chunk whose synthesis
    tap rows (one mixed-radix key) and factors agree bit for bit, each a
    candidate twin of the last of them: in log_scale_grid's order that is
    the one of positive components, whose tap rows the tables hold
    forward, and numpy multiplies by a forward run of rows faster.
    """
    vectors = np.frombuffer(vectors).reshape(-1, grid.ndim)
    taps = _tap_layout(phi, False, grid, pads, vectors)
    factors = _measure_weights(vectors, log_step) / _scale_norms(vectors)
    count = factors.size
    keys = (np.arange(count) // step, _row_keys(taps)[0], factors.view(np.int64))
    _, _, twins, twin_of = _twins(*(k[::-1] for k in keys))
    twins, twin_of = count - 1 - twins, count - 1 - twin_of
    compare = tuple((a, b, _span(twins, a, b), _span(twin_of, a, b)) for a, b in _runs(twins // step, twins, twin_of))
    rows = tuple(rows for _, rows in taps)
    factors = factors.reshape((-1,) + (1,) * grid.ndim)
    steps = _synthesis_steps(count, step, rows, twins, twin_of)
    return _SynthesisPlan(tuple(table for table, _ in taps), factors, steps, twins, twin_of, compare, rows)


def _synthesis_steps(
    count: int, step: int, taps: tuple[np.ndarray, ...], twins: np.ndarray, twin_of: np.ndarray
) -> tuple:
    """Per chunk of step of the count scale vectors, the pieces of each
    axis (see _piece_spec) and the twins argument of _fft_convolve, or
    None, for the twins (each a twin of twin_of) in the chunk: the chunk's
    other rows as slices, and the (twin rows, rows) pairs that copy a
    product row to its twins, in chunk coordinates.  taps holds each
    axis's table rows."""
    kept = np.ones(count, dtype=bool)
    kept[twins] = False
    copies = {}
    for a, b in _runs(twins // step, twins, twin_of):
        lo = int(twins[a]) // step * step
        copies.setdefault(lo, []).append((_span(twins[a:b] - lo, 0, b - a), _span(twin_of[a:b] - lo, 0, b - a)))
    steps = []
    for lo in range(0, count, step):
        chunk = slice(lo, min(lo + step, count))
        keep = kept[chunk].nonzero()[0] if lo in copies else None
        pieces = tuple(_piece_spec(rows[chunk], keep) for rows in taps)
        live = None if keep is None else (tuple(_span(keep, c, d) for c, d in _runs(None, keep)), tuple(copies[lo]))
        steps.append((pieces, live))
    return tuple(steps)


def _twin_rows(plan: _SynthesisPlan, step: int, values: np.ndarray) -> tuple:
    """The synthesis steps, in chunks of step, for the coefficient rows
    values: the plan's if every twin candidate's row agrees bit for bit
    with its twin's (compared as integers, so -0.0 and NaN payloads
    count), else those of the candidates that do, built as the plan's
    were."""
    bits = values.reshape(plan.factors.shape[0], -1).view(np.uint64)
    equal = np.empty(plan.twins.size, dtype=bool)
    for a, b, dst, src in plan.compare:
        np.all(bits[dst] == bits[src], axis=1, out=equal[a:b])
    if equal.all():
        return plan.steps
    return _synthesis_steps(len(bits), step, plan.taps, plan.twins[equal], plan.twin_of[equal])


def cfrwt_fast(
    f: SampledSignal,
    psi: WaveletSpec,
    order: TransformOrder | float,
    scales: ScaleGrid,
) -> CfrwtCoefficients:
    """Coefficients over the signal's own grid via FFT correlations.

    Realizes exactly the same discrete sums as cfrwt_direct, at
    O(N log N) per distinct coefficient row, for any sample counts.
    """
    order = _as_order(order)
    _require_same_ndim(f, scales)
    grid = f.grid
    chi = _chirped_input(f, order)[None]
    chirp = _grid_chirp(grid, -order.cot)
    out = np.empty((scales.count,) + grid.shape, dtype=np.complex128)
    chunks, work, pads = _chunk_plan(grid, scales.count)
    plan = _analysis_plan(psi, grid, pads, chunks[0].stop, scales.vectors.tobytes())
    # the convolutions and the writes broadcast or stride their operands:
    # one short-buffer scope for the pass (see frft._short_buffers)
    with _short_buffers():
        for levels, writes in plan.blocks:
            level = [chi]
            for ax, (axis, runs) in enumerate(zip(grid.axes, levels)):
                parents, level = level, []
                for (k, part), spec, offset in runs:
                    kernel = _kernel(plan.tables[ax], spec)
                    level.append(_axis_correlate(parents[k][part], ax, axis.count, kernel, work[ax % 2][offset:]))
            # each distinct row goes to its first slot, normalized and chirped
            for k, part, slots in writes:
                dst = out[slots]
                np.multiply(level[k][part], plan.reciprocals[slots], out=dst)
                dst *= chirp
    for dst, src in plan.copies:
        out[dst] = out[src]
    return CfrwtCoefficients(out, grid, scales, order, psi)


def _admissibility_for(
    phi: WaveletSpec,
    psi: WaveletSpec,
    order: TransformOrder,
    ndim: int,
    scan: FrequencyScan | None,
) -> AdmissibilityReport:
    report = cross_admissibility(phi, psi, order, scan=scan, ndim=ndim)
    if report.verdict == "divergent":
        raise InadmissibleWavelet(f"{phi.name}/{psi.name} admissibility integral diverges at order {order.alpha}")
    return report


def _cross_value(
    phi: WaveletSpec,
    psi: WaveletSpec,
    order: TransformOrder,
    ndim: int,
    scan: FrequencyScan | None,
    cross_value: complex | None = None,
) -> complex:
    """Synthesis factor |c_alpha|^2 / C, C the given cross constant or else
    the phi/psi one; refused when C is too close to zero to normalize."""
    if cross_value is None:
        cross_value = _admissibility_for(phi, psi, order, ndim, scan).value
    if abs(cross_value) < CROSS_ZERO_TOL:
        raise ZeroCrossAdmissibility(
            f"cross admissibility {abs(cross_value):.2e} below {CROSS_ZERO_TOL:.0e}; "
            "the pair cannot normalize a reconstruction"
        )
    return abs(c_alpha(order, ndim)) ** 2 / cross_value


def _field_normalizer(
    wf: CfrwtCoefficients,
    f: SampledSignal,
    wg: CfrwtCoefficients,
    g: SampledSignal,
    scan: FrequencyScan | None,
) -> tuple[AdmissibilityReport, float]:
    """Cross admissibility report of the wavelets of the field wf of f and
    the field wg of g, and |c_alpha|^2, for a coefficient-side check; a
    one-field check passes its field and signal twice.  Refused unless each
    field was taken over its signal's grid, and both on one grid, at one
    order and over the same scale vectors and measure weights."""
    if not (grids_close(wf.b_grid, f.grid) and grids_close(wg.b_grid, g.grid)):
        raise GridMismatch("coefficients were not taken over the signal's grid")
    if not (
        grids_close(wf.b_grid, wg.b_grid)
        and wf.order == wg.order
        and np.array_equal(wf.scales.vectors, wg.scales.vectors)
        and np.array_equal(wf.scales.measure_weights(), wg.scales.measure_weights())
    ):
        raise GridMismatch("the two fields differ in grid, order or scales")
    adm = _admissibility_for(wf.wavelet, wg.wavelet, wf.order, f.ndim, scan)
    return adm, abs(c_alpha(wf.order, f.ndim)) ** 2


def _spectrum_power_chirp_z(psi: WaveletSpec, order: TransformOrder, a: np.ndarray, axis: AxisSpec) -> np.ndarray:
    """|Psi_alpha(a_s xi_k)|^2 at the points xi_k of axis, one Bluestein
    chirp-z per scale.

    With centred indices t_j = j' dt and xi_k = xi_c + k' step, the Fourier
    sum of the weighted profile x at v = s xi_k (s = a csc) is, up to a
    unit-modulus factor in k,

        sum_j x_j e^{-i s xi_c dt j'} e^{-i theta j' k'},   theta = s step dt,

    and j' k' = (j'^2 + k'^2 - (k' - j')^2) / 2 turns it into a linear
    convolution with the chirp e^{i theta (k' - j')^2 / 2}, done by FFT.

    Each scale gets the Nyquist profile grid of its own frequencies,
    _spectral_points at |a_s| max|xi| |csc|, so small scales sum short
    grids; scales whose grids have the same size share FFT chunks.  Row s
    depends on a_s alone, not on the other scales of the call.
    """
    csc = order.csc
    xi, step = axis.points(), axis.step
    m = xi.size
    xi_max = float(np.max(np.abs(xi)))
    groups: dict[int, list[int]] = {}
    for k, a_k in enumerate(np.abs(a).tolist()):
        groups.setdefault(_spectral_points(psi, a_k * xi_max * abs(csc)), []).append(k)
    xi_c = (xi[0] + xi[-1]) / 2
    out = np.empty((a.size, m))
    for n, members in groups.items():
        t, x = _weighted_profile(psi, n)
        dt = t[1] - t[0]
        j = np.arange(n) - (n - 1) / 2
        size = _next_fast_len(n + m - 1)
        # lags k - j over one FFT period; k' - j' = lag - (kc - jc)
        lags = np.arange(size)
        lags = np.where(lags < m, lags, lags - size) - ((m - 1) - (n - 1)) / 2
        for rows in _row_blocks(len(members), size):
            chunk = members[rows]
            s = a[chunk, None] * csc
            theta = s * step * dt
            z = x * np.exp(-1j * (s * xi_c * dt * j + 0.5 * theta * j**2))
            full = _fft_convolve(z, np.fft.fft(_chirp(lags**2, theta), axis=1), (1,))
            out[chunk] = np.abs(full[:, :m]) ** 2
    return out * abs(c_alpha(order, 1)) ** 2


def truncated_coverage(
    psi: WaveletSpec,
    order: TransformOrder | float,
    scales: ScaleGrid,
    grid: Grid,
) -> np.ndarray:
    """Scale-truncated admissibility weight at the points of a 1-D
    frequency grid.

    Integrates |Psi_alpha(a xi)|^2 over the scale grid against da/|a|;
    on the full measure this would equal the admissibility constant for
    every xi.  The shortfall predicts how far the Plancherel ratio sits
    below one on a finite scale range.

    Each scale's frequency set a xi of the uniform grid is uniform too,
    so |Psi_alpha|^2 comes from one chirp-z transform per scale (Rabiner,
    Schafer & Rader 1969) on that scale's own Nyquist-sized profile grid,
    the grid fractional_spectrum would size for the frequencies a xi of
    that scale alone.
    """
    order = _as_order(order)
    if scales.ndim != 1 or grid.ndim != 1:
        raise ValueError("coverage prediction is one dimensional")
    power = _spectrum_power_chirp_z(psi, order, scales.vectors.ravel(), grid.axes[0])
    return np.tensordot(scales.log_measure_weights(), power, axes=1)


def plancherel_check(
    coeffs: CfrwtCoefficients,
    f: SampledSignal,
    scan: FrequencyScan | None = None,
) -> VerificationReport:
    """Energy of the coefficient field coeffs of f against the
    admissibility-scaled signal energy, both at the field's order.

    The reported ratio tends to one from below as the scale range widens;
    details carry the admissibility constant, the coefficient energy and
    the top-octave share.
    """
    adm, mod = _field_normalizer(coeffs, f, coeffs, f, scan)
    energy = coeffs.energy()
    lhs = energy * mod
    rhs = adm.value.real * l2_norm(f) ** 2
    ratio = _ratio(lhs, rhs)
    details = {
        "admissibility": adm.value.real,
        "coefficient_energy": energy,
        "last_octave_fraction": coeffs.last_octave_fraction(),
    }
    tolerance = 0.05
    return VerificationReport("plancherel_ratio", lhs, rhs, ratio, tolerance, abs(ratio - 1.0) <= tolerance, details)


def _predicted_plancherel_ratio(coeffs: CfrwtCoefficients, f: SampledSignal, admissibility: float) -> float:
    """The plancherel_check ratio of the 1-D field coeffs of f that the
    scale-truncated coverage of f's spectrum predicts; admissibility is
    the field's wavelet constant at its order, as plancherel_check reports
    it."""
    spectrum = frft_fast(f, coeffs.order)
    coverage = truncated_coverage(coeffs.wavelet, coeffs.order, coeffs.scales, spectrum.grid)
    weighted = spectrum.grid.weights() * np.abs(spectrum.values) ** 2
    return float(_ratio(np.sum(weighted * coverage), admissibility * np.sum(weighted)))


def inner_product_relation_check(
    wf: CfrwtCoefficients,
    f: SampledSignal,
    wg: CfrwtCoefficients,
    g: SampledSignal,
    scan: FrequencyScan | None = None,
) -> VerificationReport:
    """Pairing of the field wf of f (taken with phi) and the field wg of g
    (taken with psi) against the signal inner product.

    Both sides scale like the product of signal norms; the deviation is
    normalized by the moduli admissibility bound at that scale.
    """
    cross, mod = _field_normalizer(wf, f, wg, g, scan)
    pairing = wf.measure_weights() * wf.values * np.conj(wg.values)
    lhs = _exact_sum(pairing)
    rhs = cross.value / mod * inner_product(f, g)
    scale = cross.moduli_value / mod * l2_norm(f) * l2_norm(g)
    deviation = abs(lhs - rhs) / scale if scale > 0 else math.inf
    details = {
        "cross_admissibility": cross.value,
        "normalization": scale,
        "last_octave_fraction": wf.last_octave_fraction(),
    }
    tolerance = 0.07
    return VerificationReport(
        "inner_product_relation", lhs, rhs, deviation, tolerance, deviation <= tolerance, details
    )


def reconstruct(
    coeffs: CfrwtCoefficients,
    phi: WaveletSpec,
    psi_used: WaveletSpec,
    scan: FrequencyScan | None = None,
    cross_value: complex | None = None,
) -> SampledSignal:
    """Resynthesize a signal from its coefficients.

    phi is the synthesizing wavelet; psi_used must be the wavelet the
    coefficients were taken with.  The two-wavelet normalizer is their
    cross admissibility constant; it must be bounded away from zero.

    The coefficients, weighted by the shift quadrature, the b-chirp and
    each scale's measure weight / sqrt|a|, are correlated with the
    synthesis taps axis by axis.  Along the last axis every chunk's
    padded spectra are added in scale order onto one running spectrum,
    which is inverted once at the end; the result is bit-for-bit the
    same for any chunk size.  A chunk convolves each distinct row once
    and copies its padded spectrum to its twins (see the module notes).
    """
    order = coeffs.order
    ndim = coeffs.b_grid.ndim
    if psi_used != coeffs.wavelet:
        raise ValueError(f"coefficients were taken with {coeffs.wavelet.name!r}, not the given {psi_used.name!r}")
    factor = _cross_value(phi, psi_used, order, ndim, scan, cross_value)
    grid = coeffs.b_grid
    scales = coeffs.scales
    # the twin check reads the samples' bits as complex128
    values = np.ascontiguousarray(coeffs.values, dtype=np.complex128)
    b_weights = _grid_weights(grid) * _grid_chirp(grid, order.cot)
    chunks, work, pads = _chunk_plan(grid, scales.count)
    step = chunks[0].stop
    log_step = scales.log_step
    plan = _synthesis_plan(phi, grid, pads, step, scales.vectors.tobytes(), log_step, math.copysign(1.0, log_step))
    # the running padded spectrum of the scale sum along the last axis
    acc = np.zeros((1,) + grid.shape[:-1] + (pads[-1],), dtype=np.complex128)
    # one short-buffer scope for the twin check and the convolutions
    with _short_buffers():
        for chunk, (pieces, twins) in zip(chunks, _twin_rows(plan, step, values)):
            # a chunk with twins convolves its distinct rows and copies them
            # to their twins' rows before the in-order sum
            kernels = [_kernel(table, spec) for table, spec in zip(plan.tables, pieces)]
            weights = (b_weights, plan.factors[chunk])
            out = _scale_correlate(values[chunk], grid, kernels, work, weights, acc, chunk is chunks[-1], twins)
    return SampledSignal._trusted(grid, out[0] * (factor * _grid_chirp(grid, -order.cot)))


def reproducing_kernel(
    phi: WaveletSpec,
    psi: WaveletSpec,
    order: TransformOrder | float,
    p0: tuple[tuple[float, ...], tuple[float, ...]],
    p: tuple[tuple[float, ...], tuple[float, ...]],
    grid: Grid,
    scan: FrequencyScan | None = None,
) -> complex:
    """Point value of the two-wavelet reproducing kernel.

    p0 and p are (shift vector, scale vector) pairs; the kernel is the
    normalized inner product of the daughters they index, evaluated on
    the supplied quadrature grid.
    """
    order = _as_order(order)
    (b0, a0), (b, a) = p0, p
    factor = _cross_value(phi, psi, order, grid.ndim, scan)
    d_phi = make_daughter(phi, a, b, order, grid, tail_tol=None)
    d_psi = make_daughter(psi, a0, b0, order, grid, tail_tol=None)
    return factor * inner_product(d_phi, d_psi)


def range_membership_residual(
    array: CfrwtCoefficients,
    phi: WaveletSpec,
    scan: FrequencyScan | None = None,
) -> float:
    """Relative defect of the reproducing-kernel projection on an array.

    Applying the kernel integral at every point amounts to resynthesizing
    a signal from the array and transforming it again.  Arrays that are
    genuine coefficient arrays come back nearly unchanged; arbitrary
    arrays lose everything outside the transform's range, leaving a large
    residual under the measure norm.
    """
    resynth = reconstruct(array, phi, array.wavelet, scan=scan)
    projected = cfrwt_fast(resynth, array.wavelet, array.order, array.scales)
    defect = CfrwtCoefficients(
        projected.values - array.values, array.b_grid, array.scales, array.order, array.wavelet
    )
    denom = array.energy()
    if denom == 0.0:
        return 0.0
    return math.sqrt(defect.energy() / denom)
