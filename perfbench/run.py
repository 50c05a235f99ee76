"""frwt benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from its
`src/` tree, and scratch files go to `.perfbench/` there.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; with `--trace 0` the metrics are the end-to-end ones, with
`--trace 1` the per-layer ones.  The line before it records provenance.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(outcome: workloads.Outcome) -> dict:
    times = outcome.items
    return {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "item_p95_ms": (_percentile(times, 0.95) * 1e3, "ms"),
        "setup_s": (outcome.setup_s, "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "ok_frac": (1.0 - outcome.failed / outcome.attempted, "ratio"),
    }


def per_layer(ctx: workloads.Context, outcome: workloads.Outcome) -> dict:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import frwt.cli"],
        cwd=ctx.root,
        env=ctx.env,
        capture_output=True,
        text=True,
        timeout=workloads.CHILD_TIMEOUT,
    )
    items = len(outcome.items)
    metrics = tracing.layer_metrics(ctx.tracer, items, ctx.requests, tracing.parse_importtime(proc.stderr))
    metrics["trace.item_p50_ms"] = (statistics.median(outcome.items) * 1e3, "ms")
    wrapped_calls = metrics["trace.wrapped_calls"][0]
    metrics["trace.overhead_ms"] = (wrapped_calls * tracing.wrapper_cost() * 1e3, "ms")
    return metrics


def _blas() -> dict:
    import numpy as np

    info = {"version": "unknown", "threads": None}
    try:
        info["version"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in libs:
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), symbol, None)
                if fn is not None:
                    info["threads"] = fn()
                    return info
    except (OSError, KeyError, TypeError):
        pass
    return info


def _cpu() -> dict:
    info = {"model": platform.processor() or "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["model"] = line.split(":", 1)[1].strip()
                    break
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def _commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, ctx: workloads.Context) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "size": "tiny" if args.tiny else "full",
        "threads": ctx.threads,
        "nproc": workloads.nproc(),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "commit": _commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    parser.add_argument(
        "--corrupt", action="store_true", help="perturb a reference or an output, for the smoke test"
    )
    args = parser.parse_args(argv)
    # a terminated run still stops the processes it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "frwt" / "__init__.py").is_file():
        print(f"perfbench: no frwt source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("FRWT_THREADS", None)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)

    ctx = workloads.Context(
        root=ROOT,
        work=work,
        env=env,
        seed=args.seed,
        seconds=args.seconds,
        tiny=args.tiny,
        corrupt=args.corrupt,
        tracer=tracing.Tracer() if args.trace else None,
    )
    started = time.perf_counter()
    outcome = workloads.WORKLOADS[args.workload](ctx)

    import frwt

    if not Path(frwt.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: frwt was imported from {frwt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    metrics = per_layer(ctx, outcome) if args.trace else end_to_end(outcome)
    info = provenance(args, ctx)
    info["wall_s"] = time.perf_counter() - started
    if ctx.tracer is not None:
        spans = work / f"spans-{args.workload}-seed{args.seed}.json"
        ctx.tracer.dump(spans)
        info["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps({"provenance": info}))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
