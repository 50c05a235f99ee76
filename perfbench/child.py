"""One cold interpreter per verify pass or CLI command.

    python perfbench/child.py import
    python perfbench/child.py verify SUITE [--spans FILE --request ID]
    python perfbench/child.py cli [--spans FILE --request ID] -- ARGS...

The parent puts the checkout's `src` on PYTHONPATH.  `import` and
`verify` time the cold `import frwt` inside this process and report it
on the last line of stderr as `perfbench-child {"import_s": ...}`.
`verify` runs `frwt verify SUITE` through the CLI; with `--spans` it
runs the suites one by one under the tracer instead, and writes the
spans to FILE.  `cli` runs one `frwt` command, traced, and writes spans.
Exit status is the CLI's own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time


def _report(**fields) -> None:
    print("perfbench-child " + json.dumps(fields), file=sys.stderr)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("import", "verify", "cli"))
    parser.add_argument("suite", nargs="?", default="all")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--request", default=None)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    rest = argv[split + 1 :]

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracer.request = args.request

    start = time.perf_counter()
    with tracer.span("cli.import") if tracer else contextlib.nullcontext():
        import frwt.cli  # loads the whole frwt package
    import_s = time.perf_counter() - start

    if args.mode == "import":
        _report(import_s=import_s)
        return 0

    if tracer is not None:
        tracing.install(tracer)

    if args.mode == "verify":
        if tracer is None:
            code = frwt.cli.main(["verify", args.suite])
        else:
            from frwt.io import RunConfig
            from frwt.verify import SUITE_ORDER, run_suite

            passed = True
            for suite in SUITE_ORDER if args.suite == "all" else (args.suite,):
                with tracer.span(f"verify.{suite}"):
                    reports = run_suite(suite, RunConfig())
                for rep in reports:
                    print(rep.to_json())
                passed = passed and all(r.passed for r in reports)
            code = 0 if passed else 1
    else:
        if tracer is None:
            code = frwt.cli.main(rest)
        else:
            with tracer.span(f"cli.{rest[0]}"):
                code = frwt.cli.main(rest)

    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(args.spans)
    _report(import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
