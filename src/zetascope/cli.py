"""Command-line surface: validation, dispatch, and record/CSV output.

Subcommands: solve-omega, scan, universality, zeros, mollifier, zeta-eval,
calibrate. Structured output is line-delimited JSON records; CSV is for
anything plot-bound. Exit codes: 0 success, 2 invalid input, 3 ran but no
result, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .errors import (
    NoHitsError,
    PathThroughZeroError,
    PoleAtOneError,
    QuadratureFailureError,
    ResidualExceededError,
    ToleranceUnreachableError,
    WindowConstraintError,
    ZeroConstantTermError,
    ZetascopeError,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_RESULT = 3
EXIT_NUMERICAL = 4

def parse_complex(text: str) -> complex:
    """Parse 'a+bi' with no spaces; plain reals and pure imaginaries allowed.

    A trailing i is read as Python's j, so every literal complex() accepts
    is accepted too ('a+i', '1+2J', '(1+2j)'); non-finite values are refused.
    """
    t = text.strip()
    if t.endswith("i"):
        t = t[:-1] + "j"
    try:
        z = complex(t)
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None
    if not np.isfinite(z):
        raise ValueError(f"complex literal {text!r} is not finite")
    return z


class _Parser(argparse.ArgumentParser):
    """Reads a token of "-" and a digit or "." as a value, as Python 3.13
    does, so that complex literals such as -0.2+2i pass as arguments; and
    "--targets=a b" as the two targets a and b."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        args = [part for a in args
                for part in (a.split("=", 1) if a.startswith("--targets=") else (a,))]
        return super().parse_known_args(args, namespace)


def _emit(record: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "csv":
        keys = sorted(record)
        print(",".join(str(record[k]) for k in keys), file=stream)
    else:
        print(json.dumps(record, default=_json_default), file=stream)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serialisable: {type(obj)}")


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("ZETASCOPE_THREADS")
    return int(env) if env else 1


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_zeta_eval(args) -> int:
    from .zeta_engine import log_zeta_tracked, zeta

    try:
        s = parse_complex(args.s)
        ev = zeta(s, tol=args.tol)
        rec = {
            "s": s, "value": ev.value, "est_error": ev.est_error,
            "terms_used": ev.terms_used,
        }
        if args.log:
            rec["log_zeta"] = log_zeta_tracked(s.real, s.imag)
        _emit(rec, args.format)
        return EXIT_OK
    except (ValueError, PoleAtOneError) as exc:
        return _fail(str(exc), EXIT_INVALID)
    except (ToleranceUnreachableError, PathThroughZeroError) as exc:
        return _fail(str(exc), EXIT_NUMERICAL)


def _target_spec(args):
    from .omega import TargetSpec

    targets = tuple(parse_complex(t) for t in args.targets)
    return TargetSpec(n=len(targets), sigma0=args.sigma0, targets=targets, eps=args.eps)


def cmd_solve_omega(args) -> int:
    from .omega import BoundConstants, construct_phases

    try:
        spec = _target_spec(args)
        constants = None
        if args.c1 is not None:
            constants = BoundConstants(c1=args.c1, c2=args.c1, C1=args.c1)
        assignment, report = construct_phases(spec, constants, u0=args.u0)
    except (ValueError, ZeroConstantTermError) as exc:
        return _fail(str(exc), EXIT_INVALID)
    except ResidualExceededError as exc:
        return _fail(str(exc), EXIT_NUMERICAL)
    except ZetascopeError as exc:
        return _fail(str(exc), EXIT_NO_RESULT)
    _emit(report.to_record(), args.format)
    if args.phases:
        for rec in assignment.to_records():
            _emit(rec, args.format)
    return EXIT_OK if report.ok else EXIT_NUMERICAL


def cmd_calibrate(args) -> int:
    from .omega import calibrate_u0

    try:
        spec = _target_spec(args)
        u0, _, report = calibrate_u0(spec)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    except ZetascopeError as exc:
        return _fail(str(exc), EXIT_NO_RESULT)
    _emit({"u0": u0, **report.to_record()}, args.format)
    return EXIT_OK


def cmd_scan(args) -> int:
    from .scan import ScanWindow, density_estimate, scan_derivs

    try:
        targets = tuple(parse_complex(t) for t in args.targets)
        window = ScanWindow(t=args.t, h=args.h, eps=args.eps, nu=args.nu,
                            step=args.step)
        result = scan_derivs(targets, args.sigma0, window, mode=args.mode,
                             threads=_threads(args))
    except (ValueError, WindowConstraintError, ZeroConstantTermError) as exc:
        return _fail(str(exc), EXIT_INVALID)
    except ZetascopeError as exc:
        return _fail(str(exc), EXIT_NUMERICAL)
    for hit in result.hits:
        _emit(hit.to_record(args.sigma0, args.eps), "records")
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write("tau,max_residual\n")
            for hit in result.hits:
                fh.write(f"{hit.tau!r},{hit.max_residual!r}\n")
    _emit(
        {
            "summary": True, "hits": len(result.hits), "grid": result.n_grid,
            "skipped": len(result.skipped), "density": density_estimate(result),
        },
        "records",
    )
    return EXIT_OK if result.hits else EXIT_NO_RESULT


def _builtin_target(text: str):
    from .zeta_engine import zeta_array

    if text == "exp":
        return np.exp
    if text.startswith("const:"):
        c = parse_complex(text.split(":", 1)[1])
        return lambda z: np.full_like(np.asarray(z, dtype=complex), c)
    if text.startswith("poly:"):
        coeffs = [parse_complex(c) for c in text.split(":", 1)[1].split(",")]
        return lambda z: np.polyval(list(reversed(coeffs)), np.asarray(z, dtype=complex))
    if text.startswith("zeta-shift:"):
        shift = float(text.split(":", 1)[1])
        return lambda z: zeta_array(np.asarray(z, dtype=complex) + 1j * shift, tol=1e-9)
    raise ValueError(f"unknown target {text!r}; use exp, const:c, poly:c0,c1,..., zeta-shift:tau")


def cmd_universality(args) -> int:
    from .universality import UniversalityTarget, run_universality

    try:
        g = _builtin_target(args.target)
        target = UniversalityTarget(
            g=g, s0=parse_complex(args.s0), r=args.r, delta0=args.delta0,
            eps=args.eps,
        )
        report = run_universality(target, args.t, args.h, nu=args.nu,
                                  step=args.step, threads=_threads(args))
    except (ValueError, WindowConstraintError) as exc:
        return _fail(str(exc), EXIT_INVALID)
    except NoHitsError as exc:
        return _fail(str(exc), EXIT_NO_RESULT)
    except ZetascopeError as exc:
        return _fail(str(exc), EXIT_NUMERICAL)
    _emit(report.to_record(), "records")
    return EXIT_OK if report.any_verdict else EXIT_NO_RESULT


def cmd_zeros(args) -> int:
    from .zeta_engine import count_zeros, zero_density_envelope, zero_ordinates

    try:
        if args.count_alpha is not None:
            zc = count_zeros(args.count_alpha, args.t, args.h)
            _emit(
                {
                    "alpha": zc.alpha, "t": zc.t, "h": zc.h, "count": zc.count,
                    "winding_residual": zc.winding_residual,
                },
                "records",
            )
            if args.envelope:
                log_env, expo = zero_density_envelope(args.count_alpha, args.h)
                _emit({"log_envelope": log_env, "exponent": expo}, "records")
            return EXIT_OK
        zs = zero_ordinates(args.to)
        print("index,ordinate")
        for i, g in enumerate(zs, start=1):
            print(f"{i},{g:.12f}")
        return EXIT_OK if len(zs) else EXIT_NO_RESULT
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    except ZetascopeError as exc:
        return _fail(str(exc), EXIT_NUMERICAL)


def cmd_mollifier(args) -> int:
    from .mollifier import MollifierSpec, fourier_coeffs, mean_over_curve
    from .phases import PhaseAssignment
    from .primes import primes_up_to

    try:
        spec = MollifierSpec(q=args.q, delta=args.delta, m_cutoff=args.m_cutoff)
        if args.curve_mean:
            table = primes_up_to(int(spec.q))
            mean, dev = mean_over_curve(spec, args.t, args.h, PhaseAssignment({}), table)
            _emit({"t": args.t, "h": args.h, "mean": mean, "deviation": dev}, "records")
            return EXIT_OK
        data = fourier_coeffs(spec)
        print("n,re_alpha,im_alpha")
        for n, a in enumerate(data.alpha):
            print(f"{n},{float(a)!r},0.0")
        _emit(
            {"decay_constant": data.decay_constant, "tail_envelope": data.tail_envelope()},
            "records", stream=sys.stderr,
        )
        return EXIT_OK
    except (ValueError,) as exc:
        return _fail(str(exc), EXIT_INVALID)
    except QuadratureFailureError as exc:
        return _fail(str(exc), EXIT_NUMERICAL)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="zetascope",
        description="Numerical experiments around zeta shifts: phase-target "
        "construction, short-interval scans, and weak universality checks.",
    )
    p.add_argument("--version", action="version", version=f"zetascope {__version__}")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("zeta-eval", help="evaluate zeta (and tracked log) at a point")
    sp.add_argument("--s", required=True, help="complex point, e.g. 0.75+100i")
    sp.add_argument("--tol", type=float, default=1e-11)
    sp.add_argument("--log", action="store_true", help="also report branch-tracked log zeta")
    sp.add_argument("--format", choices=["records", "csv"], default="records")
    sp.set_defaults(func=cmd_zeta_eval)

    sp = sub.add_parser("solve-omega", help="construct phases hitting derivative targets")
    sp.add_argument("--sigma0", type=float, required=True)
    sp.add_argument("--targets", nargs="+", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--c1", type=float, default=None,
                    help="use the threshold formulas with this constant instead of calibration")
    sp.add_argument("--u0", type=float, default=None, help="explicit block start")
    sp.add_argument("--phases", action="store_true", help="emit the (prime, theta) records")
    sp.add_argument("--format", choices=["records", "csv"], default="records")
    sp.set_defaults(func=cmd_solve_omega)

    sp = sub.add_parser("calibrate", help="search the smallest workable block start u0")
    sp.add_argument("--sigma0", type=float, required=True)
    sp.add_argument("--targets", nargs="+", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--format", choices=["records", "csv"], default="records")
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("scan", help="scan a window for derivative-matching shifts")
    sp.add_argument("--mode", choices=["log", "zeta"], default="log")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--nu", type=float, default=27.0 / 82.0)
    sp.add_argument("--sigma0", type=float, required=True)
    sp.add_argument("--targets", nargs="+", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--csv-out", default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("universality", help="run the disk-approximation pipeline")
    sp.add_argument("--target", required=True,
                    help="exp | const:c | poly:c0,c1,... | zeta-shift:tau")
    sp.add_argument("--s0", default="0.75")
    sp.add_argument("--r", type=float, default=0.125)
    sp.add_argument("--delta0", type=float, default=0.5)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--nu", type=float, default=27.0 / 82.0)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(func=cmd_universality)

    sp = sub.add_parser("zeros", help="zero ordinates, rectangle counts, density envelope")
    sp.add_argument("--to", type=float, default=50.0, help="scan ordinates up to this height")
    sp.add_argument("--count-alpha", type=float, default=None,
                    help="count zeros right of this abscissa in [t, t+h] instead")
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--h", type=float, default=50.0)
    sp.add_argument("--envelope", action="store_true")
    sp.set_defaults(func=cmd_zeros)

    sp = sub.add_parser("mollifier", help="Fourier data and curve-mean experiments")
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--m-cutoff", type=int, default=64)
    sp.add_argument("--curve-mean", action="store_true")
    sp.add_argument("--t", type=float, default=100.0)
    sp.add_argument("--h", type=float, default=1000.0)
    sp.set_defaults(func=cmd_mollifier)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_OK
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
