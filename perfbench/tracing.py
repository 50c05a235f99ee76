"""Spans and counts around the public functions of each frwt module.

The program is not edited: `install` rebinds each listed function, in
every `frwt.*` module namespace that holds it, to a wrapper that records
a span (name, start, end, parent span, request id) and the counts the
per-layer metrics need.  Spans are kept in memory and written out once,
at the end of a run.  Nothing is recorded while no request is open, so
set-up work and correctness checks stay out of the per-layer figures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# module -> public functions wrapped with a span
SPANNED = {
    "admissibility": ("cross_admissibility", "fractional_spectrum"),
    "cfrwt": (
        "cfrwt_fast",
        "reconstruct",
        "truncated_coverage",
        "plancherel_check",
        "range_membership_residual",
    ),
    "frft": ("frft_fast", "frft_direct", "make_plan"),
    "uncertainty": (
        "heisenberg_cfrwt",
        "lemma_moment_identity_check",
        "restricted_energy_identity_check",
        "local_uncertainty_scan",
    ),
    "morrey": ("morrey_norm", "morrey_bound_check", "morrey_distance_checks"),
    "fracconv": ("spectral_identity_check",),
    "io": ("read_signal", "write_signal", "read_coefficients", "write_coefficients"),
}

# modules whose cumulative import time is reported, in import order
IMPORTED = (
    "frwt",
    "frwt.errors",
    "frwt.grid",
    "frwt.frft",
    "frwt.fracconv",
    "frwt.wavelets",
    "frwt.scales",
    "frwt.admissibility",
    "frwt.report",
    "frwt.cfrwt",
    "frwt.uncertainty",
    "frwt.morrey",
    "frwt.io",
    "frwt.verify",
    "frwt.cli",
)

SUITES = (
    "parseval",
    "additivity",
    "convolution",
    "plancherel",
    "reconstruction",
    "kernel",
    "heisenberg",
    "local",
    "morrey",
)


class Tracer:
    """In-memory span recorder; one open request at a time."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, list] = defaultdict(list)  # request -> admissibility keys
        self.request: str | None = None
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "request": self.request}
        )
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._open.remove(index)

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, amount: float = 1) -> None:
        if self.request is not None:
            self.counts[name] += amount

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        return traced

    def merge(self, spans: list[dict], counts: dict, keys: dict) -> None:
        """Fold in the spans and counts a child process wrote."""
        offset = len(self.spans)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + offset
            self.spans.append(dict(s, parent=parent))
        self.counts.update(counts)
        for request, items in keys.items():
            self.keys[request].extend(tuple(k) for k in items)

    def dump(self, path: str | os.PathLike) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), "keys": self.keys}, fh)


def load(path: str | os.PathLike) -> tuple[list, dict, dict]:
    with open(path) as fh:
        data = json.load(fh)
    return data["spans"], data["counts"], data["keys"]


# ------------------------------------------------------------------
# counters: (tracer, bound arguments, result)


def _admissibility_key(tracer: Tracer, a: dict, result) -> None:
    from frwt.admissibility import FrequencyScan

    order = a["order"]
    alpha = float(getattr(order, "alpha", order))
    key = (a["phi"].name, a["psi"].name, alpha, repr(a["scan"] or FrequencyScan()), a["ndim"])
    tracer.keys[tracer.request].append(key)


def _spectrum_points(tracer: Tracer, a: dict, result) -> None:
    tracer.count("admissibility.fractional_spectrum.points", int(result.size))


def _coefficient_output(tracer: Tracer, a: dict, result) -> None:
    tracer.count("cfrwt.scale_slices", result.scales.count)
    tracer.count("cfrwt.coeff_bytes", result.values.nbytes)


def _coverage_points(tracer: Tracer, a: dict, result) -> None:
    tracer.count("cfrwt.truncated_coverage.points", int(result.size) * a["scales"].count)


def _balls(tracer: Tracer, a: dict, result) -> None:
    cfg = a["cfg"]
    tracer.count("morrey.ball_evaluations", len(cfg.centers) * len(cfg.radii))


def _file_bytes(name: str):
    def counter(tracer: Tracer, a: dict, result) -> None:
        tracer.count(f"io.{name}.bytes", os.path.getsize(a["path"]))

    return counter


COUNTERS = {
    "admissibility.cross_admissibility": _admissibility_key,
    "admissibility.fractional_spectrum": _spectrum_points,
    "cfrwt.cfrwt_fast": _coefficient_output,
    "cfrwt.truncated_coverage": _coverage_points,
    "morrey.morrey_norm": _balls,
    **{f"io.{n}": _file_bytes(n) for n in SPANNED["io"]},
}


def install(tracer: Tracer) -> None:
    """Rebind the listed functions in every loaded frwt module namespace.

    Internal calls go through module globals, so a rebinding in the
    defining module also catches calls made from inside that module.
    The wavelet catalog entries get a counting profile callable.
    """
    import frwt.cli  # noqa: F401  (loads every frwt module)
    from frwt import wavelets

    modules = [m for name, m in sys.modules.items() if name == "frwt" or name.startswith("frwt.")]
    for module_name, functions in SPANNED.items():
        home = sys.modules[f"frwt.{module_name}"]
        for fn_name in functions:
            original = getattr(home, fn_name)
            span_name = f"{module_name}.{fn_name}"
            wrapped = tracer.wrap(span_name, original, COUNTERS.get(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    for name, spec in list(wavelets.CATALOG.items()):
        wavelets.CATALOG[name] = dataclasses.replace(spec, profile=_counted_profile(tracer, spec.profile))


def _counted_profile(tracer: Tracer, profile):
    @functools.wraps(profile)
    def counted(t):
        tracer.count("wavelets.profile.calls")
        tracer.count("wavelets.profile.points", int(getattr(t, "size", 1)))
        return profile(t)

    return counted


# ------------------------------------------------------------------
# per-layer figures


def _aggregate(spans: list[dict], requests: set[str]) -> dict[str, dict[str, float]]:
    """calls, total (outermost spans only) and self seconds per span name."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for i, s in enumerate(spans):
        if s["request"] not in requests:
            continue
        duration = s["end"] - s["start"]
        agg = out[s["name"]]
        agg["calls"] += 1
        agg["self"] += duration - child_time[i]
        ancestor = s["parent"]
        while ancestor is not None and spans[ancestor]["name"] != s["name"]:
            ancestor = spans[ancestor]["parent"]
        if ancestor is None:
            agg["total"] += duration
    return out


def layer_metrics(tracer: Tracer, items: int, requests: set[str], imports: dict[str, float]) -> dict:
    """Every per-layer metric, per item, from the spans of the given requests.

    `items` is the number of traced work items (verify passes, stream
    items or CLI round trips); counts and seconds are divided by it.
    """
    agg = _aggregate(tracer.spans, requests)
    per = 1.0 / items
    m: dict[str, tuple[float, str]] = {}

    def calls(name: str) -> None:
        m[f"{name}.calls"] = (agg[name]["calls"] * per, "count")

    def self_s(name: str) -> None:
        m[f"{name}.self_s"] = (agg[name]["self"] * per, "s")

    def total_s(name: str) -> None:
        m[f"{name}.total_s"] = (agg[name]["total"] * per, "s")

    def counted(name: str, unit: str = "count") -> None:
        m[name] = (tracer.counts.get(name, 0) * per, unit)

    calls("admissibility.cross_admissibility")
    self_s("admissibility.cross_admissibility")
    keys = [tracer.keys.get(r, []) for r in requests]
    scans = sum(len(k) for k in keys)
    distinct = sum(len(set(k)) for k in keys)
    m["admissibility.distinct_keys"] = (distinct * per, "count")
    m["admissibility.repeat_share"] = ((scans - distinct) / scans if scans else 0.0, "ratio")
    calls("admissibility.fractional_spectrum")
    self_s("admissibility.fractional_spectrum")
    counted("admissibility.fractional_spectrum.points")

    for name in ("cfrwt.cfrwt_fast", "cfrwt.reconstruct"):
        calls(name)
        self_s(name)
    counted("cfrwt.scale_slices")
    counted("cfrwt.coeff_bytes", "bytes")
    calls("cfrwt.truncated_coverage")
    total_s("cfrwt.truncated_coverage")
    counted("cfrwt.truncated_coverage.points")
    total_s("cfrwt.plancherel_check")
    total_s("cfrwt.range_membership_residual")

    for name in ("frft.frft_fast", "frft.frft_direct"):
        calls(name)
        self_s(name)
    calls("frft.make_plan")

    counted("wavelets.profile.calls")
    counted("wavelets.profile.points")

    for fn in SPANNED["uncertainty"]:
        total_s(f"uncertainty.{fn}")

    calls("morrey.morrey_norm")
    self_s("morrey.morrey_norm")
    counted("morrey.ball_evaluations")
    total_s("morrey.morrey_bound_check")
    total_s("morrey.morrey_distance_checks")

    total_s("fracconv.spectral_identity_check")

    for fn in SPANNED["io"]:
        calls(f"io.{fn}")
        self_s(f"io.{fn}")
        counted(f"io.{fn}.bytes", "bytes")

    for suite in SUITES:
        m[f"verify.{suite}_s"] = (agg[f"verify.{suite}"]["total"] * per, "s")

    m["cli.cfrwt_s"] = (agg["cli.cfrwt"]["total"] * per, "s")
    m["cli.synth_s"] = (agg["cli.synth"]["total"] * per, "s")
    imports_seen = agg["cli.import"]["calls"]
    m["cli.import_s"] = (agg["cli.import"]["total"] / imports_seen if imports_seen else 0.0, "s")
    for module in IMPORTED:
        m[f"import.{module}_s"] = (imports.get(module, 0.0), "s")

    wrapped = [f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns]
    m["trace.wrapped_calls"] = (
        (sum(agg[name]["calls"] for name in wrapped) + tracer.counts.get("wavelets.profile.calls", 0)) * per,
        "count",
    )
    return m


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per frwt module from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2] in IMPORTED and parts[1].isdigit():
            out[parts[2]] = int(parts[1]) * 1e-6
    return out


def wrapper_cost(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds one traced call adds over a bare call (median of repeats).

    Measured on a no-op that goes through the same wrapper, counter
    included, as the spanned functions.
    """

    def noop(a, b=None):
        return a

    tracer = Tracer()
    tracer.request = "calibration"
    wrapped = tracer.wrap("noop", noop, lambda t, arguments, result: None)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for k in range(calls):
            noop(k)
        t1 = time.perf_counter()
        for k in range(calls):
            wrapped(k)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))
