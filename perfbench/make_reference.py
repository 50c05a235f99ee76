"""Capture perfbench/reference.json from the current source tree.

    python3 perfbench/make_reference.py

Records every `frwt verify` suite's output, suite by suite, and the
reconstruction error `frwt synth` prints for each seeded 2-D signal of
the cli_roundtrip pool.  Run it only at a commit whose numbers are
trusted: the benchmark counts any later difference as a failure.
"""

from __future__ import annotations

import json
import os
import sys

import run
import tracing
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    os.environ.pop("FRWT_THREADS", None)
    work = run.ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    ctx = workloads.Context(
        root=run.ROOT,
        work=work,
        env=dict(os.environ, PYTHONPATH=str(run.SRC)),
        seed=0,
        seconds=0.0,
        tiny=False,
        corrupt=False,
        tracer=None,
        threads=workloads.nproc(),
    )
    reference = {"verify": {}, "cli_2d": []}
    for suite in tracing.SUITES:
        _, records, _ = workloads.verify_pass(ctx, suite, None)
        reference["verify"][suite] = [
            {key: rec[key] for key in ("name", "pass", "lhs", "rhs", "ratio")} for rec in records
        ]
        print(suite, len(records), "records", file=sys.stderr)
    for index in range(workloads.POOL_2D):
        _, ok, error = workloads.cli_round_trip(ctx, "2d", index, None)
        if not ok:
            raise SystemExit(f"2-D pool item {index} failed")
        reference["cli_2d"].append(error)
        print("2d", index, error, file=sys.stderr)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
