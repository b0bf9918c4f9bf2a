"""Command line interface.

Machine-facing output (JSON, CSV) goes to stdout and is byte-stable across
reruns: keys are sorted, floats use %.12g, rationals print as num/den, and
no timestamps or timing appear on stdout.  Progress and notes go to stderr.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage error
(an input out of range, or too large for the memory at hand), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction

from .charsum import class_number, rational_margin, t_stat
from .check import verify_certificate
from .errors import (CharposError, CertificateError, DomainError,
                     InsufficientBound, SearchBudgetExceeded)
from .fq import fq_exact, fq_min_and_zeros, fq_prime_frac, identity_check
from .liouville import agreement_length, f_series, find_imitator
from .ntcore import primes_in_range, quad_char
from .verify import certify_f_positive, scan_positivity

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def _exact_rational(text: str) -> Fraction:
    """Rational a/b for certification paths; decimal strings are refused
    because 0.1 is not the number the user wrote."""
    if not _RATIONAL.match(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an exact rational; write it as a/b")
    return _loose_rational(text)


def _loose_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rat(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _float(v: float) -> str:
    return f"{v:.12g}"


def cmd_verify(args) -> int:
    q_min = 5 if args.q_min is None else args.q_min
    t0 = time.perf_counter()
    result = scan_positivity(q_min, args.q_max, jobs=args.jobs,
                             checkpoint_path=args.checkpoint)
    elapsed = time.perf_counter() - t0
    print(f"scan finished in {elapsed:.1f}s", file=sys.stderr)
    if args.format == "json":
        print(result.to_json())
    else:
        if result.count == 0:
            print(f"scanned 0 moduli in [{result.q_min},{result.q_max}]; "
                  "positivity holds vacuously")
        elif result.holds:
            print(f"scanned {result.count} moduli in "
                  f"[{result.q_min},{result.q_max}]: min W = {result.min_w} "
                  f"at q = {result.argmin_q}; positivity holds")
        else:
            bad = ", ".join(f"q={q} W={w}" for q, w in result.failures)
            print(f"scanned {result.count} moduli in "
                  f"[{result.q_min},{result.q_max}]: FAILURES: {bad}")
    return 0 if result.holds else 1


def cmd_certify(args) -> int:
    try:
        result = certify_f_positive(args.eps, q=args.q, xmax=args.xmax,
                                    search_ceiling=args.ceiling,
                                    target_agreement=args.agreement)
    except InsufficientBound as exc:
        print(f"cannot certify: {exc.detail}", file=sys.stderr)
        if exc.best_eps is not None:
            print(f"smallest certifiable left endpoint: {_rat(exc.best_eps)}",
                  file=sys.stderr)
        return 1
    except SearchBudgetExceeded as exc:
        print(f"cannot certify: {exc}", file=sys.stderr)
        return 1
    if result.truncated:
        print(f"truncated: certified up to {_rat(result.achieved_xmax)} "
              f"of requested {_rat(result.requested_xmax)}", file=sys.stderr)
    text = json.dumps(result.certificate, sort_keys=True,
                      separators=(",", ":"))
    if args.out is None:
        print(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
        print(f"certificate written to {args.out}", file=sys.stderr)
    return 0


def cmd_check_cert(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid: not JSON ({exc})")
        return 1
    ok, why = verify_certificate(cert)
    if ok:
        print("ok")
        return 0
    print(f"invalid: {why}")
    return 1


def _plot_grid(xmax: Fraction, step: Fraction):
    """The points k*step <= xmax, k >= 0; the bounds are checked at the
    call, before anything is printed."""
    if step <= 0:
        raise CharposError("step must be positive")
    if xmax < 0:
        raise CharposError("xmax must be nonnegative")
    return (k * step for k in range(math.floor(xmax / step) + 1))


def cmd_plot(args) -> int:
    if args.curve in ("fq", "diff") and args.q is None:
        raise DomainError(f"plot {args.curve} needs --q")
    if args.curve in ("f", "diff") and args.terms < 1:
        raise DomainError(f"plot {args.curve} needs --terms >= 1")
    grid = _plot_grid(args.xmax, args.step)
    ch = None if args.curve == "f" else quad_char(args.q)
    # every table, built (or refused) before the header
    if ch is not None:
        class_number(ch)
    if args.curve != "fq":
        f_series(0, args.terms)
    print("x,value,error_bound")
    if args.curve == "f":
        for x in grid:
            sv = f_series(x, args.terms)
            print(f"{_rat(x)},{_float(sv.value)},{_float(sv.tail_bound)}")
        return 0
    if args.curve == "fq":
        for x in grid:
            ev = fq_exact(ch, x)
            print(f"{_rat(x)},{_float(ev.value)},0")
        return 0
    rec = agreement_length(ch)
    bound = 2.0 / rec.n_agree + 1.0 / args.terms
    for x in grid:
        diff = f_series(x, args.terms).value - fq_exact(ch, x).value
        print(f"{_rat(x)},{_float(diff)},{_float(bound)}")
    return 0


def cmd_class_number(args) -> int:
    print(class_number(args.q).h)
    return 0


def cmd_agreement(args) -> int:
    rec = agreement_length(quad_char(args.q))
    print(f"{rec.n_agree} {rec.first_mismatch}")
    return 0


def cmd_imitator(args) -> int:
    try:
        q = find_imitator(args.agreement, args.ceiling)
    except SearchBudgetExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(q)
    return 0


def cmd_tq(args) -> int:
    if args.count < 0:
        raise DomainError("tq needs --count >= 0")
    shown = 0
    lo, hi = 7, 1 << 10
    while shown < args.count:
        for q in primes_in_range(lo, hi, residue=7, modulus=8)[:args.count - shown]:
            print(f"{t_stat(int(q))} {int(q)}")
            shown += 1
        lo, hi = hi + 1, hi * 4
    return 0


def cmd_testpq(args) -> int:
    ev = fq_prime_frac(args.a, args.p, quad_char(args.q))
    stat = "-" if ev.stat is None else str(ev.stat)
    print(f"{stat} {ev.core} {_float(ev.value)}")
    return 0


def cmd_fq_eval(args) -> int:
    ev = fq_exact(quad_char(args.q), args.x)
    print(f"{_rat(ev.coeff)} {_float(ev.value)}")
    return 0


def cmd_fq_margin(args) -> int:
    val, flag = rational_margin(quad_char(args.q), args.x)
    print(f"{_rat(val)} {'q-divisible' if flag else 'coprime'}")
    return 0


def cmd_fq_zeros(args) -> int:
    shape = fq_min_and_zeros(quad_char(args.q))
    print(f"min {shape.min_w} at {shape.argmin_a}")
    for z in shape.zeros:
        print(f"zero {_rat(z)}")
    for lo, hi in shape.flats:
        print(f"flat {_rat(lo)} {_rat(hi)}")
    return 0


def cmd_identity(args) -> int:
    if identity_check(quad_char(args.q), args.a):
        print("ok")
        return 0
    print("mismatch")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charpos",
        description="Quadratic character sums and exact positivity "
                    "certificates for the Liouville sine series.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="scan margin positivity over a prime range")
    p.add_argument("--q-min", type=int, default=None)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="emit a positivity certificate for f")
    p.add_argument("--eps", type=_exact_rational, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=int)
    group.add_argument("--auto", action="store_true")
    p.add_argument("--xmax", type=_exact_rational, default=Fraction(1, 4))
    p.add_argument("--out", default=None)
    p.add_argument("--agreement", type=int, default=40)
    p.add_argument("--ceiling", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("check-cert", help="verify a certificate file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check_cert)

    p = sub.add_parser("plot", help="CSV samples of f, f_q, or their difference")
    p.add_argument("curve", choices=("f", "fq", "diff"))
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--terms", type=int, default=1000)
    p.add_argument("--xmax", type=_loose_rational, default=Fraction(1, 2))
    p.add_argument("--step", type=_loose_rational, default=Fraction(1, 1000))
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("class-number", help="class number of Q(sqrt(-q))")
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_class_number)

    p = sub.add_parser("agreement", help="agreement length with the Liouville function")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("imitator", help="smallest modulus with a given agreement length")
    p.add_argument("--agreement", type=int, required=True)
    p.add_argument("--ceiling", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_imitator)

    p = sub.add_parser("tq", help="quarter-point sums for primes q = 7 (mod 8)")
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(func=cmd_tq)

    p = sub.add_parser("testpq", help="finite-sum evaluation of f_q(a/p)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_testpq)

    p = sub.add_parser("fq-eval", help="exact f_q(x) at a rational x")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=_exact_rational, required=True)
    p.set_defaults(func=cmd_fq_eval)

    p = sub.add_parser("fq-margin", help="exact x*(h - S(qx)) with divisibility flag")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=_exact_rational, required=True)
    p.set_defaults(func=cmd_fq_margin)

    p = sub.add_parser("fq-zeros", help="zeros and flats of f_q on (0, 1/2]")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_fq_zeros)

    p = sub.add_parser("identity", help="check the lattice identity core = 4qW")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, default=None)
    p.set_defaults(func=cmd_identity)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.q_min is not None \
            and args.q_min > args.q_max:
        parser.error(f"--q-min {args.q_min} exceeds --q-max {args.q_max}")
    try:
        return args.func(args)
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CharposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: out of memory for {' '.join(argv)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
