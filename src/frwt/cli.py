"""Command-line front end: transforms, coefficients, synthesis, verify.

Exit codes: 0 success, 1 verification failure, 2 parse or precondition
failure, 3 degenerate transform order, 4 inadmissible wavelet, 5
unknown verification suite, 6 a command stopped on an unexpected error
(reported on one line), 7 stdout was closed before the output was
written.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import os
import sys

from .admissibility import admissibility_constant
from .cfrwt import cfrwt_fast, reconstruct
from .errors import DeltaKernel, FrwtError, GridMismatch, InadmissibleWavelet, SignalFileError
from .frft import _one_blas_thread, frft_direct, frft_fast
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
from .report import _ratio
from .verify import run_suite, suite_names
from .wavelets import get_wavelet

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DELTA = 3
EXIT_INADMISSIBLE = 4
EXIT_UNKNOWN_SUITE = 5
EXIT_UNEXPECTED = 6
EXIT_CLOSED_STDOUT = 7


def _load_signal(path: str) -> SampledSignal:
    if os.fspath(path).endswith(".csv"):
        return read_csv(path)
    return read_signal(path)


def _save_signal(path: str, signal: SampledSignal) -> None:
    if os.fspath(path).endswith(".csv"):
        write_csv(path, signal)
    else:
        write_signal(path, signal)


def _finite_float(text: str) -> float:
    """argparse type for real options: a non-finite value is a parse error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _unexpected(what: str, exc: Exception) -> int:
    """Report an error no other exit code covers on one line, without a traceback."""
    message = " ".join(str(exc).split())
    print(f"{what}: {type(exc).__name__}: {message}", file=sys.stderr)
    return EXIT_UNEXPECTED


def cmd_frft(args) -> int:
    signal = _load_signal(args.input)
    engine = frft_fast if args.engine == "fast" else frft_direct
    out = engine(signal, args.alpha)
    _save_signal(args.output, out)
    norm = l2_norm(signal)
    residual = _ratio(abs(l2_norm(out) - norm), norm)
    print(f"parseval residual: {residual:.6e}")
    return EXIT_OK


def cmd_cfrwt(args) -> int:
    signal = _load_signal(args.input)
    cfg = parse_run_config(args.config)
    psi = get_wavelet(cfg.wavelet)
    adm = admissibility_constant(psi, cfg.alpha, scan=cfg.frequency_scan(), ndim=signal.ndim)
    if adm.verdict == "divergent":
        print(f"wavelet {psi.name!r} is inadmissible at order {cfg.alpha}", file=sys.stderr)
        print("divergence trace (cutoff, running integral):", file=sys.stderr)
        for cutoff, value in adm.trace:
            print(f"  {cutoff:.3e}  {value:.6f}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    scales = cfg.scale_grid(signal.ndim, signal.values.size)
    coeffs = cfrwt_fast(signal, psi, cfg.alpha, scales)
    write_coefficients(args.output, coeffs)
    print(f"wrote {scales.count} x {signal.values.size} coefficients at order {cfg.alpha}")
    return EXIT_OK


def cmd_synth(args) -> int:
    coeffs = read_coefficients(args.input)
    cfg = parse_run_config(args.config)
    # the reference is read and checked before the output is written
    ref = None if args.reference is None else _load_signal(args.reference)
    if ref is not None and not grids_close(ref.grid, coeffs.b_grid):
        raise GridMismatch("the reference signal does not share the coefficients' grid")
    recon = reconstruct(coeffs, get_wavelet(cfg.wavelet), coeffs.wavelet, scan=cfg.frequency_scan())
    _save_signal(args.output, recon)
    if ref is not None:
        err = _ratio(l2_norm(SampledSignal(ref.grid, recon.values - ref.values)), l2_norm(ref))
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
        return _unexpected(f"suite error: {args.suite}", exc)
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
    p.add_argument("--alpha", type=_finite_float, required=True, help="transform order in radians")
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
    # at exit the collector's last walk over numpy's and frwt's objects
    # costs 10-14 ms, and a command leaves nothing for it to free: every
    # file it writes is closed on return.  Freezing the heap once the
    # interpreter exits skips that walk and leaves in-process callers a
    # normal collector.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    # a command holds OpenBLAS at one thread, and stops its idle workers,
    # which would otherwise busy-wait on CPUs the command's own threads use
    with _one_blas_thread(stop_pool=True):
        args = _build_parser().parse_args(argv)
        try:
            code = args.handler(args)
            # a reader that left shows here, not in the flush at exit
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # the output has nowhere to go; the flush at exit must not raise
            # again, so stdout now writes to the null device
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_CLOSED_STDOUT
        except SignalFileError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
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
        except Exception as exc:
            return _unexpected(f"unexpected error: {args.command}", exc)


if __name__ == "__main__":
    sys.exit(main())
