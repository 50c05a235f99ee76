"""Command-line front end: transforms, coefficients, synthesis, verify.

Exit codes: 0 success, 1 verification failure, 2 parse or precondition
failure, 3 degenerate transform order, 4 inadmissible wavelet, 5
unknown verification suite, 6 a verification suite stopped on an
unexpected error (reported on one line).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .admissibility import FrequencyScan, admissibility_constant
from .cfrwt import cfrwt_fast, reconstruct
from .errors import DeltaKernel, FrwtError, GridMismatch, InadmissibleWavelet, SignalFileError
from .frft import frft_direct, frft_fast
from .grid import SampledSignal, grids_close, l2_norm
from .io import (
    parse_run_config,
    read_coefficients,
    read_csv,
    read_signal,
    write_coefficients,
    write_csv,
    write_signal,
)
from .scales import log_scale_grid
from .verify import run_suite, suite_names
from .wavelets import get_wavelet

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DELTA = 3
EXIT_INADMISSIBLE = 4
EXIT_UNKNOWN_SUITE = 5
EXIT_SUITE_ERROR = 6


def _load_signal(path: str) -> SampledSignal:
    if os.fspath(path).endswith(".csv"):
        return read_csv(path)
    return read_signal(path)


def _save_signal(path: str, signal: SampledSignal) -> None:
    if os.fspath(path).endswith(".csv"):
        write_csv(path, signal)
    else:
        write_signal(path, signal)


def _scan_for(cfg) -> FrequencyScan:
    return FrequencyScan(u_min=cfg.u_min, u_max=cfg.u_max)


def cmd_frft(args) -> int:
    signal = _load_signal(args.input)
    engine = frft_fast if args.engine == "fast" else frft_direct
    out = engine(signal, args.alpha)
    _save_signal(args.output, out)
    residual = abs(l2_norm(out) - l2_norm(signal)) / l2_norm(signal) if l2_norm(signal) else 0.0
    print(f"parseval residual: {residual:.6e}")
    return EXIT_OK


def cmd_cfrwt(args) -> int:
    signal = _load_signal(args.input)
    cfg = parse_run_config(args.config)
    psi = get_wavelet(cfg.wavelet)
    adm = admissibility_constant(psi, cfg.alpha, scan=_scan_for(cfg), ndim=signal.ndim)
    if adm.verdict == "divergent":
        print(f"wavelet {psi.name!r} is inadmissible at order {cfg.alpha}", file=sys.stderr)
        print("divergence trace (cutoff, running integral):", file=sys.stderr)
        for cutoff, value in adm.trace:
            print(f"  {cutoff:.3e}  {value:.6f}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    scales = log_scale_grid(
        cfg.a_min, cfg.a_max, cfg.a_count, ndim=signal.ndim, signs="both"
    )
    coeffs = cfrwt_fast(signal, psi, cfg.alpha, scales)
    write_coefficients(args.output, coeffs)
    print(f"wrote {scales.count} x {signal.values.size} coefficients at order {cfg.alpha}")
    return EXIT_OK


def cmd_synth(args) -> int:
    coeffs = read_coefficients(args.input)
    cfg = parse_run_config(args.config)
    synthesis = get_wavelet(cfg.wavelet)
    analysis = get_wavelet(coeffs.wavelet)
    recon = reconstruct(coeffs, synthesis, analysis, scan=_scan_for(cfg))
    _save_signal(args.output, recon)
    if args.reference is not None:
        ref = _load_signal(args.reference)
        if not grids_close(ref.grid, recon.grid):
            raise GridMismatch("the reference signal does not share the coefficients' grid")
        err = l2_norm(SampledSignal(ref.grid, recon.values - ref.values)) / l2_norm(ref)
        print(f"reconstruction error: {err:.6e}")
        if cfg.tolerance is not None and err > cfg.tolerance:
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = parse_run_config(args.config)
    if args.suite not in suite_names():
        print(f"unknown suite {args.suite!r}; valid: {', '.join(suite_names())}", file=sys.stderr)
        return EXIT_UNKNOWN_SUITE
    try:
        reports = run_suite(args.suite, cfg)
    except FrwtError:
        raise
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"suite error: {args.suite}: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_SUITE_ERROR
    for rep in reports:
        print(rep.to_json())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frwt",
        description="Fractional Fourier and fractional wavelet transform toolbox.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frft", help="transform a signal file at a fractional order")
    p.add_argument("input", help="signal file (binary or .csv)")
    p.add_argument("--alpha", type=float, required=True, help="transform order in radians")
    p.add_argument("--engine", choices=("fast", "direct"), default="fast")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_frft)

    p = sub.add_parser("cfrwt", help="compute wavelet coefficients over a scale grid")
    p.add_argument("input")
    p.add_argument("--config", default=None, help="key=value run configuration")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_cfrwt)

    p = sub.add_parser("synth", help="resynthesize a signal from coefficients")
    p.add_argument("input", help="coefficients file")
    p.add_argument("--config", default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--reference", default=None, help="signal to compare against")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("verify", help="run a verification suite, one JSON line per check")
    p.add_argument("suite", help="one of: " + ", ".join(suite_names()))
    p.add_argument("--config", default=None)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SignalFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return EXIT_PARSE
    except KeyError as exc:
        print(f"parse error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_PARSE
    except DeltaKernel as exc:
        print(
            f"degenerate order: {exc}\n"
            "at multiples of pi the transform is an exact relabeling; "
            "use the frft command, whose engines dispatch the identity "
            "copy (alpha = 0) and the axis reflection (alpha = pi) exactly",
            file=sys.stderr,
        )
        return EXIT_DELTA
    except InadmissibleWavelet as exc:
        print(f"inadmissible wavelet: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except FrwtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
