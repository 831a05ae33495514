"""Command-line front end: stable text/JSON/b-file output and an optional
result cache (env QETUDE_CACHE).

A cached Q_n is used only if it equals a fresh `det_recurrence(n)`, so a hit
saves no work and the cache is due for removal.

Each verb imports only the layers it runs, inside its own branch of
`_dispatch`, so `series` or `sequence` never load the multivariate ring, the
discovery pipelines or the verifier; `json` is imported only where JSON is
read or written.

Exit codes: 0 success, 1 verification, domain or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .poly import XQPoly, _coef_json
from .reproduce import ITEMS


# -- result cache ----------------------------------------------------------

def cache_dir():
    return os.environ.get("QETUDE_CACHE") or None


def _cache_path(n: int) -> str:
    return os.path.join(cache_dir(), f"det_{n}.json")


def cache_store(n: int, value: XQPoly) -> None:
    d = cache_dir()
    if not d:
        return
    import tempfile

    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        f.write(value.dumps())
    os.replace(tmp, _cache_path(n))


def cache_load(n: int):
    from .lehmer import det_recurrence

    path = cache_dir() and _cache_path(n)
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            value = XQPoly.loads(f.read())
        if value != det_recurrence(n):
            raise ValueError(f"not the determinant of M({n})")
        return value
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as e:
        print(f"warning: ignoring corrupt cache file {path}: {e}", file=sys.stderr)
        return None


def cached_det(n: int) -> XQPoly:
    from .lehmer import det_recurrence

    value = cache_load(n)
    if value is None:
        value = det_recurrence(n)
        cache_store(n, value)
    return value


# -- output helpers --------------------------------------------------------

def _print_json(value) -> None:
    import json  # loaded only by the commands that write JSON

    print(json.dumps(value))


def _emit_series(s, fmt):
    if fmt == "json":
        payload = [c.to_json() if hasattr(c, "to_json") else _coef_json(c)
                   for c in s.coeffs]
        _print_json({"order": s.order, "coeffs": payload})
        return
    # a polynomial entry is a coefficient in X
    for i, c in enumerate(s.coeffs):
        text = c.to_text(var="X") if hasattr(c, "to_text") else str(c)
        print(f"q^{i}: {text}")


def _positive(value):
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def _nonnegative(value):
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


X_CHOICES = {"q": (1, 1), "-q": (-1, 1), "-1": (-1, 0), "-q^2": (-1, 2)}


class _Parser(argparse.ArgumentParser):
    """Help that fails to write raises, where argparse would swallow the
    error; `add_subparsers` gives each verb's parser this class too."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qetude", description="exact q-determinant laboratory")
    sub = p.add_subparsers(dest="verb", required=True)

    d = sub.add_parser("det", help="determinant of the tridiagonal matrix")
    d.add_argument("--n", type=_positive, required=True)
    d.add_argument("--method", choices=["recurrence", "oracle"], default="recurrence")
    d.add_argument("--format", choices=["text", "json"], default="text")

    c = sub.add_parser("closed-form", help="the finite closed form")
    c.add_argument("--n", type=_positive, required=True)
    c.add_argument("--format", choices=["text", "json"], default="text")

    g = sub.add_parser("guess", help="run a conjecture pipeline")
    g.add_argument("--mode", choices=["andrews", "ansatz"], required=True)
    g.add_argument("--amax", type=_nonnegative, required=True)
    g.add_argument("--nmax", type=_positive, required=True)
    g.add_argument("--format", choices=["text", "json"], default="text")

    v = sub.add_parser("verify", help="desk-scale proof checks")
    v.add_argument("--numeric", type=_positive, metavar="NMAX")
    v.add_argument("--coefficient", type=_positive, metavar="AMAX")
    grp = v.add_mutually_exclusive_group()
    grp.add_argument("--certificate", metavar="EXPR",
                     help="'XN' for the printed certificate, or a JSON file "
                          "with {num, den} in the (q,X,N,A) ring")
    grp.add_argument("--solve-certificate", type=_positive, metavar="CAP")
    v.add_argument("--format", choices=["text", "json"], default="text")

    s = sub.add_parser("series", help="truncated limit series")
    s.add_argument("--truncate", type=_nonnegative, required=True, metavar="K")
    s.add_argument("--x", choices=list(X_CHOICES) + ["symbolic"], default="symbolic",
                   help="value substituted for X; write -q and -q^2 as "
                        "--x=-q and --x=-q^2")
    s.add_argument("--invert", action="store_true",
                   help="also print the series reciprocal (scalar series only)")
    s.add_argument("--format", choices=["text", "json"], default="text")

    q = sub.add_parser("sequence", help="gap-constrained composition counts")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--count", type=_positive, required=True)
    q.add_argument("--format", choices=["text", "json", "bfile"], default="text")

    r = sub.add_parser("rr-check", help="Rogers-Ramanujan specialization checks")
    r.add_argument("--order", type=_positive, required=True, metavar="K")
    r.add_argument("--format", choices=["text", "json"], default="text")

    rp = sub.add_parser("reproduce", help="regenerate and diff the source displays")
    rp.add_argument("--only", choices=sorted(ITEMS))
    rp.add_argument("--format", choices=["text", "json"], default="text")
    return p


def _load_certificate(expr: str):
    from .multi import RationalFunc
    from .verifier import Certificate, literal_certificate

    if expr == "XN":
        return literal_certificate()
    import json

    try:
        with open(expr) as f:
            return Certificate(RationalFunc.from_json(json.load(f)))
    except OSError as e:
        raise ValueError(f"cannot read certificate file {expr}: {e.strerror}") from None
    except (KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError,
            ValueError) as e:
        raise ValueError(f"malformed certificate file {expr}: "
                         f"{type(e).__name__}: {e}") from None


def run(argv=None) -> int:
    try:
        try:
            return _dispatch(build_parser().parse_args(argv))
        finally:
            sys.stdout.flush()  # a failing stdout, --help included, shows up here
    except ValueError as e:  # GuessError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # stdout, or a file such as the cache
        try:
            sys.stdout.flush()
        except OSError:  # the interpreter flushes stdout again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.verb == "det":
        from .lehmer import det_oracle

        value = det_oracle(args.n) if args.method == "oracle" else cached_det(args.n)
        print(value.dumps() if args.format == "json" else value.to_text())
        return 0

    if args.verb == "closed-form":
        from .closedform import theorem2_value

        value = theorem2_value(args.n)
        print(value.dumps() if args.format == "json" else value.to_text())
        return 0

    if args.verb == "guess":
        from .discovery import synthesize_conjecture

        report = synthesize_conjecture(args.mode, args.amax, args.nmax)
        if args.format == "json":
            _print_json(report.to_json())
        else:
            for t in report.terms:
                if t.gaussian is not None:
                    sign = "-" if t.sign < 0 else "+"
                    print(f"X^{t.a}: {sign} q^{t.q_shift} * "
                          f"GP(n{t.gaussian.m_offset:+d}, {t.gaussian.n_param})")
                else:
                    print(f"X^{t.a}: {t.rational.strip_content().to_text()}")
            if report.denominator_ratios is not None:
                print("denominator ratios:",
                      [p.to_text() for p in report.denominator_ratios])
            print(f"holdout verified: {report.holdout_verified}")
        return 0

    if args.verb == "verify":
        from .closedform import theorem2_value
        from .lehmer import det_recurrences
        from .verifier import (CheckResult, _coefficient_identities, check_certificate,
                               check_certificate_down, check_recurrence_numeric,
                               lehmer_operator, solve_certificate)

        results = []
        informational = []
        ran_specific = any([args.numeric, args.coefficient, args.certificate,
                            args.solve_certificate])
        numeric = args.numeric or (40 if not ran_specific else None)
        coefficient = args.coefficient or (8 if not ran_specific else None)
        if numeric:
            for label, values in (("closed form", theorem2_value),
                                  ("determinant", det_recurrences(numeric))):
                results.append(check_recurrence_numeric(numeric, values)._replace(
                    name=f"recurrence-numeric {label} n<={numeric}"))
        if coefficient:
            results.extend(_coefficient_identities(coefficient))
        rec = lehmer_operator()
        if args.certificate:
            cert = _load_certificate(args.certificate)
            sides = {"G(n,a+1)-G(n,a)": check_certificate(rec, cert),
                     "G(n,a)-G(n,a-1)": check_certificate_down(rec, cert)}
            informational.extend(
                r._replace(name=f"certificate orientation {side} [informational]")
                for side, r in sides.items())
            # the certificate counts as verified if either orientation holds
            failed = [f"{side}: {r.detail}" for side, r in sides.items() if not r.ok]
            results.append(CheckResult(
                len(failed) < 2, "certificate either orientation", "; ".join(failed)))
        if args.solve_certificate:
            try:
                cert = solve_certificate(rec, args.solve_certificate)
                results.append(check_certificate(rec, cert))
            except ValueError as e:
                results.append(CheckResult(False, "certificate-solve", str(e)))
        ok = all(r.ok for r in results)
        shown = informational + results
        if args.format == "json":
            _print_json([r.to_json() for r in shown])
        else:
            for r in shown:
                quiet = r.ok or r.detail is None or "informational" in r.name
                print(f"{'PASS' if r.ok else 'FAIL'}  {r.name}"
                      + ("" if quiet else f"  ({r.detail})"))
        return 0 if ok else 1

    if args.verb == "series":
        from .qseries import substitute_x, theorem1_truncated
        from .series import series_invert

        if args.invert and args.x == "symbolic":
            # the constant term is 1 - X at every order: reject before any output
            raise ValueError("--invert needs a scalar series: substitute X with --x "
                             "(with symbolic X the constant term 1 - X is not invertible)")
        s = theorem1_truncated(args.truncate)
        if args.x != "symbolic":
            coeff, exp = X_CHOICES[args.x]
            s = substitute_x(s, coeff, exp)
        _emit_series(s, args.format)
        if args.invert:
            print("reciprocal:")
            _emit_series(series_invert(s), args.format)
        return 0

    if args.verb == "sequence":
        from .qseries import bfile_text, sequence_rpartitions

        seq = sequence_rpartitions(args.r, args.count)
        if args.format == "bfile":
            sys.stdout.write(bfile_text(seq, offset=1))
        elif args.format == "json":
            _print_json(seq)
        else:
            print(", ".join(str(v) for v in seq))
        return 0

    if args.verb == "rr-check":
        return _rr_check(args)

    if args.verb == "reproduce":
        from .reproduce import reproduce

        results = reproduce(args.only)
        ok = all(r[1] for r in results)
        if args.format == "json":
            _print_json([{"item": n, "pass": p} if p else
                         {"item": n, "pass": p, "detail": str(d)}
                         for n, p, d in results])
        else:
            for name, passed, detail in results:
                print(f"{'PASS' if passed else 'FAIL'}  {name}"
                      + ("" if passed else f"  ({detail})"))
        if not ok:
            first = next(r for r in results if not r[1])
            print(f"first mismatch: {first[0]}", file=sys.stderr)
        return 0 if ok else 1

    raise AssertionError(f"unhandled verb {args.verb}")


def _rr_check(args) -> int:
    from .qseries import (rr_product_truncated, sequence_rpartitions,
                          substitute_x, theorem1_truncated)

    K = args.order
    limit = theorem1_truncated(K)
    sum_side = substitute_x(limit, -1, 1)          # X = -q
    product_side = rr_product_truncated(K, {1, 4}, 5)
    gap_counts = [1] + sequence_rpartitions(2, K)
    coeffs = [int(c) for c in sum_side.scalar_list()]
    ok = sum_side == product_side and coeffs == gap_counts
    x_minus_one = substitute_x(limit, -1, 0)       # X = -1, no identity asserted
    x_minus_q2 = substitute_x(limit, -1, 2)        # X = -q^2
    if args.format == "json":
        _print_json({
            "order": K,
            "first_rr_sum_equals_product": sum_side == product_side,
            "sum_side": [str(c) for c in coeffs],
            "gap2_counts": gap_counts,
            "x=-1": [str(c) for c in x_minus_one.scalar_list()],
            "x=-q^2": [str(c) for c in x_minus_q2.scalar_list()],
        })
    else:
        print(f"{'PASS' if ok else 'FAIL'}  X=-q specialization vs "
              f"product over parts = 1,4 (mod 5) and gap>=2 counts, order {K}")
        print("side-by-side (no identity asserted for X=-1):")
        print("  X=-1  :", [str(c) for c in x_minus_one.scalar_list()])
        print("  X=-q^2:", [str(c) for c in x_minus_q2.scalar_list()])
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
