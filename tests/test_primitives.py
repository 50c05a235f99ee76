"""The shared numerical primitives: one chirp, one padded FFT convolution,
one exact sum, one exact sum of a batch of rows, one batched fast-transform
entry, one row-block rule, one lag FFT length and one separable broadcast
onto a grid, each defined once and used everywhere else; no module imports a name it never reads; the
package exports exactly the names its modules list in __all__; every
function, parameter and name the benchmark in perfbench/ binds exists; and
functools memoizes only the named scalar memos, every other memo being
frwt.memo's, which alone sets arrays read-only."""

from __future__ import annotations

import ast
import importlib
import inspect
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frwt import grid as grid_module
from frwt.cfrwt import cfrwt_fast, inner_product_relation_check
from frwt.frft import _chirp, _fft_convolve, _next_fast_len
from frwt.grid import (
    AxisSpec,
    Grid,
    SampledSignal,
    _exact_row_sums,
    _exact_sum,
    _separable,
    axis_centered,
    inner_product,
    integrate,
    l1_norm,
    l2_norm,
)
from frwt.report import VerificationReport
from frwt.scales import log_scale_grid
from frwt.uncertainty import dispersion
from frwt.wavelets import get_wavelet

SRC = Path(__file__).resolve().parents[1] / "src" / "frwt"

# (what, pattern, the helpers allowed to contain it as (file, function)
# [, the modules searched, every module when left out])
RULES = [
    ("math.fsum", re.compile(r"\bfsum\("), {("grid.py", "_exact_sum")}),
    # rows are summed exactly in batches by one error-free tree of TwoSum
    ("TwoSum", re.compile(r"\((\w+) - \(\w+ - (\w+)\)\) \+ \(\w+ - \2\)"), {("grid.py", "_exact_row_sums")}),
    # a command skips the collector's last walk at exit from one place
    ("exit freeze", re.compile(r"\batexit\.register\(|\bgc\.freeze\b"), {("cli.py", "main")}),
    (
        "inline quadratic chirp",
        re.compile(r"np\.exp\(\s*(?:[-+]\s*|\w+\s*\*\s*)?0\.5j"),
        {("frft.py", "_chirp")},
    ),
    (
        "inverse FFT",
        re.compile(r"\bifftn?\("),
        {("frft.py", "_fft_convolve"), ("frft.py", "_apply_plan")},
    ),
    (
        "fast transform plan",
        re.compile(r"\b(?:make_plan|_apply_plan)\("),
        {("frft.py", "_transform"), ("frft.py", "make_plan"), ("frft.py", "_transform_plan"), ("frft.py", "_apply_plan")},
    ),
    (
        "rows per byte budget",
        re.compile(r"// \(16 \*"),
        {("frft.py", "_row_blocks"), ("frft.py", "_direct_apply")},
    ),
    ("lag FFT length", re.compile(r"_next_fast_len\(2 \*"), {("cfrwt.py", "_chunk_plan")}),
    # synthesis sums its scale rows, twin copies among them, in row order in
    # the one padded convolution
    ("scale sum", re.compile(r"np\.add\.reduce\("), {("frft.py", "_fft_convolve")}),
    # the tap lags are built once per magnitude run, where a -a row is the
    # reversed +a row
    ("lag grid", re.compile(r"np\.arange\(-\(n - 1\), n\)"), {("cfrwt.py", "_tap_spectrum")}),
    # a per-axis quantity reaches the grid through grid._separable
    ("per-axis reshape", re.compile(r"\[\w+\]\s*=\s*-1\b"), {("frft.py", "_apply_plan")}),
    ("full coordinate mesh", re.compile(r"np\.meshgrid\("), {("grid.py", "meshgrid")}),
    # the runtime depends on numpy alone
    ("scipy import", re.compile(r"^\s*(?:from|import)\s+scipy\b"), set()),
    # every binary header field is read through the bounds-checked cursor
    ("struct unpack", re.compile(r"\.unpack\("), {("io.py", "take")}),
    # the file readers leave every axis and grid check to AxisSpec and Grid
    ("axis from a file", re.compile(r"\bAxisSpec\("), {("io.py", "_grid")}, "io.py"),
    # one concurrency site: the job runner beside run_suite, which runs the
    # verify suites' jobs; only it starts helper threads, no CPU permits
    # ration them, and OpenBLAS's thread count is looked up in one place
    ("helper thread", re.compile(r"\bthreading\.Thread\("), {("verify.py", "_run_jobs")}),
    ("CPU permit", re.compile(r"\b_cpu_permits\."), set()),
    (
        "OpenBLAS lookup",
        re.compile(r"\bctypes\.CDLL\(|scipy_openblas_|blas_thread_shutdown_"),
        {("frft.py", "_openblas_thread_calls")},
    ),
    # a coefficient field carries its wavelet, so only the synthesis entry,
    # which is handed the analysing wavelet again, compares the two
    ("analysing wavelet guard", re.compile(r"coefficients were taken with"), {("cfrwt.py", "reconstruct")}),
    # a coefficient-side check takes the fields it checks; only the
    # re-analysis of a resynthesis needs a pass of its own
    (
        "coefficient pass",
        re.compile(r"\bcfrwt_fast\("),
        {("cfrwt.py", "cfrwt_fast"), ("cfrwt.py", "range_membership_residual")},
        "cfrwt.py",
    ),
    # numpy's ufunc buffer size is set and restored in one scope, which a
    # pass enters once
    ("ufunc buffer size", re.compile(r"\bnp\.setbufsize\("), {("frft.py", "_short_buffers")}),
    # only the package's own transform and synthesis outputs skip the
    # signal constructor's conversion and shape check
    (
        "trusted signal",
        re.compile(r"\bSampledSignal\._trusted\("),
        {("frft.py", "frft_fast"), ("cfrwt.py", "reconstruct")},
    ),
    # one module owns the read-only policy of shared arrays: the memo
    ("read-only array", re.compile(r"\.flags\.writeable\s*=\s*False"), {("memo.py", "_freeze")}),
    # a pass's tap layout and twin classes are planned once per scale grid,
    # so no call redoes that bookkeeping
    (
        "pass bookkeeping",
        re.compile(r"(?<!def )\b_(?:tap_layout|twins)\("),
        {("cfrwt.py", "_analysis_plan"), ("cfrwt.py", "_synthesis_plan")},
    ),
]


def _function_spans(tree: ast.AST) -> dict[str, tuple[int, int]]:
    return {
        node.name: (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@pytest.mark.parametrize("rule", RULES, ids=[r[0] for r in RULES])
def test_primitive_lives_only_in_its_helper(rule):
    what, pattern, allowed, modules = rule if len(rule) == 4 else (*rule, "*.py")
    offences, used_in = [], set()
    for path in sorted(SRC.glob(modules)):
        text = path.read_text()
        spans = _function_spans(ast.parse(text))
        inside = [spans[fn] for name, fn in allowed if name == path.name and fn in spans]
        for lineno, line in enumerate(text.splitlines(), 1):
            if not pattern.search(line):
                continue
            if any(lo <= lineno <= hi for lo, hi in inside):
                used_in.add(path.name)
            else:
                offences.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offences, f"{what} outside {sorted(allowed)}:\n" + "\n".join(offences)
    # the helpers exist and still hold the primitive, so the rule is not vacuous
    assert used_in == {name for name, _ in allowed}


# every function memoized with functools.cache or functools.lru_cache, as
# module.function: the scalar memos, whose values hold no array (a padded
# length, the OpenBLAS calls, an order's classification, its kernel
# normalization, a pass's chunk layout); every other memo is frwt.memo's,
# under its byte budget
SCALAR_MEMOS = {
    "frft._next_fast_len",
    "frft._openblas_thread_calls",
    "frft._order_at",
    "frft._normalization",
    "cfrwt._chunk_layout",
}


def _is_memo(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "functools":
        return target.attr in ("cache", "lru_cache")
    return isinstance(target, ast.Name) and target.id in ("cache", "lru_cache")


def test_memoized_functions_are_the_named_ones():
    # a decorator line sits outside the function's span, so RULES cannot see it
    memoized = {
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_is_memo, node.decorator_list))
    }
    assert memoized == SCALAR_MEMOS


def _names_read(tree: ast.AST) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    # string annotations ("TransformOrder | float") read names too
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _names_read(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    # the package module re-exports everything it imports
    for path in sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text())
        kept = _names_read(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(a.asname or a.name) for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}" for name in bound if name not in kept]
    assert not unused, "imported and never read:\n" + "\n".join(unused)


def test_public_surface_is_the_union_of_the_module_lists():
    package = importlib.import_module("frwt")
    listed, misplaced = set(), []
    for path in sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"):
        module = importlib.import_module(f"frwt.{path.stem}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name, None)
            home = getattr(value, "__module__", module.__name__)
            if value is None or home != module.__name__ or getattr(package, name, None) is not value:
                misplaced.append(f"{path.stem}.{name}")
            listed.add(name)
    assert not misplaced, "listed but not defined there or not re-exported by frwt: " + ", ".join(misplaced)
    public = {name for name, value in vars(package).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(public - listed) == []


PERFBENCH = SRC.parents[1] / "perfbench"


def test_what_perfbench_binds_exists():
    # perfbench/tracing.py rebinds the functions in SPANNED and its
    # counters read arguments by name; its workloads import names from
    # the package and pass some by keyword.  Read the scripts, edit none.
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    spanned = next(
        ast.literal_eval(n.value)
        for n in tree.body
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "SPANNED"
    )
    missing = [
        f"{module}.{fn}"
        for module, fns in spanned.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"frwt.{module}"), fn, None))
    ]
    parameters = {
        ("admissibility", "cross_admissibility"): ("phi", "psi", "scan", "ndim"),
        ("cfrwt", "truncated_coverage"): ("scales",),
        ("cfrwt", "reconstruct"): ("cross_value",),
        ("morrey", "morrey_norm"): ("cfg",),
        ("scales", "log_scale_grid"): ("signs",),
        **{("io", fn): ("path",) for fn in spanned["io"]},
    }
    for (module, fn), names in parameters.items():
        signature = inspect.signature(getattr(importlib.import_module(f"frwt.{module}"), fn))
        missing += [f"{module}.{fn}({name}=)" for name in names if name not in signature.parameters]
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "frwt":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing, "perfbench binds what the package no longer has: " + ", ".join(missing)


def test_chirp_carries_the_sign_in_its_factor():
    r2 = np.linspace(0.0, 40.0, 97)
    for cot in np.linspace(-30.0, 30.0, 61):
        assert np.array_equal(_chirp(r2, cot), np.exp(0.5j * cot * r2))
        assert np.array_equal(_chirp(r2, -cot), np.exp(-0.5j * cot * r2))


@pytest.mark.parametrize("n, m", [(101, 37), (256, 256), (5, 64)])
def test_fft_convolve_is_linear_convolution(n, m):
    rng = np.random.default_rng(n + m)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    pad = _next_fast_len(n + m - 1)
    full = _fft_convolve(u, np.fft.fft(g, pad), (0,))
    assert full.shape == (pad,)
    np.testing.assert_allclose(full[: n + m - 1], np.convolve(u, g), rtol=0, atol=1e-12 * n * m)


def test_fft_convolve_broadcasts_one_operand_row_into_a_given_buffer():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((1, 40)) + 0j
    kernels = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    work = np.full(4 * 64, np.nan, dtype=np.complex128)
    full = _fft_convolve(u, kernels, (1,), work)
    assert full.shape == (3, 64)
    assert np.shares_memory(full, work)
    rows = [_fft_convolve(u[0], kernels[k], (0,)) for k in range(3)]
    assert np.array_equal(full, np.stack(rows))


@pytest.mark.parametrize("shape, pad", [((12, 40), 96), ((7, 5, 33), 72)])
def test_fft_convolve_reduces_rows_onto_a_running_spectrum(shape, pad):
    rng = np.random.default_rng(len(shape))
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    u *= np.exp(rng.uniform(-8.0, 8.0, shape))
    kernels = rng.standard_normal((shape[0],) + (1,) * (len(shape) - 2) + (pad,)) * (1.0 + 0.5j)
    axes = (len(shape) - 1,)
    plain = _fft_convolve(u, kernels, axes)
    row = (1,) + plain.shape[1:]
    whole = _fft_convolve(u, kernels, axes, acc=np.zeros(row, dtype=np.complex128))
    assert whole.shape == row
    assert np.abs(whole[0] - plain.sum(axis=0)).max() <= 1e-13 * np.abs(plain).max()
    # any split of the rows into successive calls sums them in the same order
    k = shape[0]
    for cuts in ([], list(range(1, k)), [1, 4], [k - 1], sorted(rng.choice(np.arange(1, k), 3, replace=False))):
        acc = np.zeros(row, dtype=np.complex128)
        bounds = [0, *cuts, k]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            got = _fft_convolve(u[lo:hi], kernels[lo:hi], axes, acc=acc, invert=hi == k)
            assert got is acc
        assert np.array_equal(acc, whole)


def test_fft_convolve_sums_copied_twin_rows_in_row_order():
    """Rows convolved once and copied to their twins' rows reach the
    running spectrum exactly as the rows added one at a time in row order:
    numpy's reduce over the leading axis of a C-contiguous block, the
    ground of synthesis's bit-identity, pinned."""
    rng = np.random.default_rng(11)
    k, n, pad = 10, 40, 96
    u = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    u *= np.exp(rng.uniform(-8.0, 8.0, (k, n)))
    kernels = rng.standard_normal((k, pad)) * (1.0 + 0.5j)
    # rows 6, 7 and 8 are twins of rows 3, 2 and 1, and row 9 of row 3
    for twin, first in ((6, 3), (7, 2), (8, 1), (9, 3)):
        u[twin], kernels[twin] = u[first], kernels[first]
    twins = ([slice(0, 6)], [(slice(6, 9), slice(3, 0, -1)), (slice(9, 10), slice(3, 4))])
    start = rng.standard_normal((1, pad)) * 1e3 + 0j
    acc, work = start.copy(), np.empty(k * pad, dtype=np.complex128)
    got = _fft_convolve(u, [(slice(0, 6), kernels[:6])], (1,), work, acc=acc, invert=False, twins=twins)
    assert got is acc
    product = _fft_convolve(u, kernels, (1,), invert=False)
    # the buffer holds the product rows, the first one summed onto acc
    assert np.array_equal(work.reshape(k, pad)[1:], product[1:])
    total = start[0]
    for row in product:
        total = total + row
    assert np.array_equal(acc[0], total)
    # without acc, the inverted rows, copies among them
    plain = _fft_convolve(u, [(slice(0, 6), kernels[:6])], (1,), twins=twins)
    assert np.array_equal(plain, _fft_convolve(u, kernels, (1,)))


def test_fft_convolve_weights_multiply_the_operand_as_it_is_padded():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30))
    w_b = np.exp(1j * rng.standard_normal(30))
    w_s = rng.uniform(0.5, 2.0, (4, 1))
    kernels = rng.standard_normal((4, 64)) + 0j
    want = _fft_convolve(u * w_b * w_s, kernels, (1,))
    assert np.array_equal(_fft_convolve(u, kernels, (1,), weights=(w_b, w_s)), want)


def test_fft_convolve_weighs_a_chunk_in_place_with_its_bits():
    """The stream field's synthesis chunk, 64 rows of 256 samples padded to
    512 and weighted as they are written: numpy walks the strided and
    broadcast operands in place instead of copying them through its
    128 KiB ufunc buffers, and every bit is what those buffers give."""
    rng = np.random.default_rng(7)
    u = rng.standard_normal((64, 256)) + 1j * rng.standard_normal((64, 256))
    u *= np.exp(rng.uniform(-30.0, 30.0, u.shape))
    weights = (np.exp(1j * rng.standard_normal(256)) * rng.uniform(0.1, 2.0, 256), rng.uniform(0.5, 2.0, (64, 1)))
    kernels = rng.standard_normal((64, 512)) + 1j * rng.standard_normal((64, 512))
    work = np.empty(64 * 512, dtype=np.complex128)
    buffered = _fft_convolve.__wrapped__(u, kernels, (1,), None, weights)
    _fft_convolve(u, kernels, (1,), work, weights)
    tracemalloc.start()
    try:
        got = _fft_convolve(u, kernels, (1,), work, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.view(np.uint64), buffered.view(np.uint64))
    # the weighted write alone took 263 632 B of ufunc buffers
    assert peak < 16 * 1024


def _wide(shape, seed, complex_values=False):
    # magnitudes from 1e-300 to 1e300 with random signs: cancellation
    # across the whole exponent range
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    return values + 1j * _wide(shape, seed + 1) if complex_values else values


@pytest.mark.parametrize(
    "values",
    [
        np.linspace(-1.0, 1.0, 1001) ** 3,
        (np.arange(64.0) - 20.0) * (1.0 + 1e-3j),
        np.array([1e100, 1.0, -1e100]),
        _wide(2048, 1),
        _wide(561, 3, complex_values=True),
        # strided views: a complex array's parts, and every third element
        _wide(512, 5, complex_values=True).real,
        _wide(512, 7, complex_values=True).imag,
        _wide(1200, 9, complex_values=True)[1::3],
    ],
)
def test_exact_sum_is_fsum_of_each_part(values):
    got = _exact_sum(values)
    if np.iscomplexobj(values):
        assert isinstance(got, complex)
        assert got == complex(math.fsum(values.real), math.fsum(values.imag))
    else:
        assert isinstance(got, float)
        assert got == math.fsum(values)


def test_exact_sum_is_non_finite_where_fsum_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # intermediate overflow of finite parts
        assert _exact_sum(np.full(64, 1e307)) == math.inf
        # inf + -inf
        assert math.isnan(_exact_sum(np.array([math.inf, -math.inf, 1.0])))
        got = _exact_sum(np.full(64, -1e307 + 1.0j))
        assert got.real == -math.inf and got.imag == 64.0
        got = _exact_sum(np.array([1.0 + 1.0j, complex(-math.inf, 2.0), complex(math.inf, 3.0)]))
        assert math.isnan(got.real) and got.imag == 6.0


def _row_bits(sums):
    return np.array(sums, dtype=np.float64).view(np.uint64)


def _drawn_rows(rows, width, low, span, mixed, zero_share, seed):
    """A batch of values 2^e * [0.5, 1) with exponents e from low to
    low + span (subnormal to overflowing), signed at random if mixed, and
    about zero_share of them +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    exponents = rng.integers(low, min(low + span, 1024) + 1, (rows, width))
    values = np.ldexp(rng.uniform(0.5, 1.0, (rows, width)), exponents)
    if mixed:
        values *= rng.choice([-1.0, 1.0], values.shape)
    zeros = rng.random(values.shape) < zero_share
    values[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return values


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 40),
    width=st.sampled_from([0, 1, 2, 3, 7, 8, 63, 64, 255, 256, 1023, 2048]),
    low=st.integers(-1080, 1024),
    span=st.sampled_from([0, 1, 52, 53, 54, 106, 400, 2100]),
    mixed=st.booleans(),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# on either side of the cut-over between fsum by row and the tree
@example(rows=1, width=1023, low=-60, span=2100, mixed=True, zero_share=0.0, seed=1)
@example(rows=3, width=1023, low=-60, span=2100, mixed=True, zero_share=0.0, seed=1)
@example(rows=25, width=2048, low=-1080, span=1080, mixed=False, zero_share=0.0, seed=2)
def test_exact_row_sums_are_the_exact_sums_of_the_rows(rows, width, low, span, mixed, zero_share, seed):
    values = _drawn_rows(rows, width, low, span, mixed, zero_share, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _exact_row_sums(values)
        assert np.array_equal(_row_bits(got), _row_bits([_exact_sum(row) for row in values]))


EXACT_ROW_SUM_ROWS = {
    # half-ulp ties of 1, broken or not by a tail beyond the error terms
    "tie": [1.0, 2.0**-54, 2.0**-54, 0.0],
    "tie-up": [1.0, 2.0**-54, 2.0**-54, 2.0**-106],
    "tie-down": [1.0, 2.0**-54, 2.0**-54, -(2.0**-106)],
    # sums just below a power of two, where the gap halves: the second
    # one's hi + lo is the midpoint 1 - 2^-54 and its sum lies just below,
    # so it rounds down to 1 - 2^-53, not to its hi of 1
    "power-of-two-tail": [1.0, -(2.0**-80)],
    "below-power-of-two": [1.0, -(2.0**-54), -(2.0**-108)],
    # a sum that the float sum of the tree's errors puts on the other side
    # of a midpoint than it is: only the error bound refuses it
    "rounded-errors": [
        float.fromhex(v) for v in ("0x1.0000000000002p-55", "0x1.ffffffffffffcp-56", "0x1.a3778aac8643cp+0", "-0x1.8p-53")
    ],
    "negative-zeros": [-0.0] * 5,
    "subnormals": [5e-324, 3 * 5e-324, -(2.0**-1030), 2.0**-1023],
    "inf": [1.0, math.inf, 2.0],
    "-inf": [-math.inf, 1.0, -1.0],
    "nan": [1.0, math.nan, 2.0],
    "inf-inf": [math.inf, 1.0, -math.inf],
}


@pytest.mark.parametrize("row", EXACT_ROW_SUM_ROWS.values(), ids=EXACT_ROW_SUM_ROWS.keys())
def test_exact_row_sums_keep_the_bits_of_named_rows(row):
    # repeated past the cut-over, so that the tree takes the row
    values = np.tile(row, (-(-grid_module._TREE_MIN_VALUES // len(row)), 1))
    with np.errstate(invalid="ignore"):
        want = _exact_sum(np.array(row))
    assert np.array_equal(_row_bits(_exact_row_sums(values)), _row_bits([want] * len(values)))


def test_exact_row_sums_leave_a_fsum_overflow_to_exact_sum(monkeypatch):
    # fsum's running sum overflows on a finite sum: _exact_sum then gives
    # numpy's sum, which the tree's more accurate one would not match
    row = np.array([1e307] * 20 + [-1e307] * 18)
    with pytest.raises(OverflowError):
        math.fsum(row)
    copies = -(-grid_module._TREE_MIN_VALUES // len(row))
    fallback = []
    monkeypatch.setattr(grid_module, "_exact_sum", lambda v: fallback.append(len(v)) or _exact_sum(v))
    assert _exact_row_sums(np.tile(row, (copies, 1))) == [_exact_sum(row)] * copies
    assert fallback == [len(row)] * copies


def test_exact_row_sums_certify_smooth_rows_without_fsum(monkeypatch):
    # the rows of a radial moment: their values span 0.1 down to
    # subnormals, and every one is certified by the tree
    t = np.linspace(-64.0, 64.0, 2048)
    values = np.exp(-np.outer(np.linspace(0.05, 2.0, 25), t**2)) * t**2 / 16.0
    want = [_exact_sum(row) for row in values]
    monkeypatch.setattr(grid_module, "_exact_sum", lambda v: pytest.fail("a row took fsum"))
    assert np.array_equal(_row_bits(_exact_row_sums(values)), _row_bits(want))


SEPARABLE_GRIDS = [
    Grid((AxisSpec(-8.3, 0.1, 167),)),
    Grid((axis_centered(0.4, 30), AxisSpec(-4.0, 0.35, 27))),
    Grid((axis_centered(0.5, 12), AxisSpec(-8.3, 0.1, 167), axis_centered(0.7, 9))),
]


@pytest.mark.parametrize("grid", SEPARABLE_GRIDS, ids=["1d", "2d", "3d"])
def test_separable_is_bitwise_the_hand_rolled_broadcasts(grid):
    points = grid.axis_points()
    mesh = np.meshgrid(*points, indexing="ij")
    # reshape-and-add, as radius_sq and the operator phases were written
    summed = np.zeros(grid.shape)
    for k, pts in enumerate(points):
        shape = [1] * grid.ndim
        shape[k] = -1
        summed = summed + (pts**2).reshape(shape)
    assert np.array_equal(_separable([pts**2 for pts in points]), summed)
    assert np.array_equal(grid.radius_sq(), summed)
    # a multiply.outer chain, as the trapezoidal weights were written
    chained = grid.axes[0].weights()
    for ax in grid.axes[1:]:
        chained = np.multiply.outer(chained, ax.weights())
    assert np.array_equal(grid.weights(), chained)
    # full meshes, as the ball distances and the wavelet envelopes were written
    center = tuple(0.3 * k - 0.45 for k in range(grid.ndim))
    d2 = sum((m - c) ** 2 for m, c in zip(mesh, center))
    assert np.array_equal(_separable([(pts - c) ** 2 for pts, c in zip(points, center)]), d2)
    for name in ("mexican_hat", "dog3", "morlet"):
        psi = get_wavelet(name)
        product = _separable([psi.profile(pts / 1.7) for pts in points], np.multiply)
        factors = [psi.profile(m / 1.7) for m in mesh]
        full = factors[0]
        for factor in factors[1:]:
            full = full * factor
        assert np.array_equal(product, full)


GRID = Grid((axis_centered(1.0, 64),))
MEX, DOG4 = get_wavelet("mexican_hat"), get_wavelet("dog4")


def _flat(value: float) -> SampledSignal:
    return SampledSignal(GRID, np.full(GRID.shape, value, dtype=np.complex128))


def _scales(a_min: float = 0.5):
    return log_scale_grid(a_min, 8.0, 16, ndim=1, signs="both")


# Every public entry that ends in an exact sum, on signals whose samples
# are finite but whose sums are not representable.
OVERFLOWING = {
    "integrate": lambda: integrate(_flat(1e307)),
    "l1_norm": lambda: l1_norm(_flat(1e307)),
    "inner_product": lambda: inner_product(_flat(1e307), _flat(1e307)),
    "l2_norm": lambda: l2_norm(_flat(1e307)),
    "inner_product_relation_check": lambda: inner_product_relation_check(
        cfrwt_fast(_flat(1e153), MEX, 0.9, _scales()), _flat(1e153),
        cfrwt_fast(_flat(1e153), DOG4, 0.9, _scales()), _flat(1e153),
    ),
    "dispersion": lambda: dispersion(_flat(1e153), 1.0),
    "energy": lambda: cfrwt_fast(_flat(1e153), MEX, 0.9, _scales()).energy(),
}


@pytest.mark.parametrize("entry", sorted(OVERFLOWING))
def test_unrepresentable_sum_is_non_finite_not_an_exception(entry):
    with np.errstate(all="ignore"):
        result = OVERFLOWING[entry]()
    if isinstance(result, VerificationReport):
        assert not result.passed
        assert not np.isfinite(result.lhs)
    else:
        assert not np.isfinite(result)
