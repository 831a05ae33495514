"""Command-line front end: stable text/JSON/b-file output and an optional
result cache (env QETUDE_CACHE).

Each verb in `VERBS` maps its parsed arguments to an exit code and its stdout
lines, and `run` alone writes them.  A verb imports only the layers it runs:
`series` and `sequence` never load the multivariate ring, the discovery
pipelines or the verifier, `guess --mode andrews` never loads the
multivariate ring, and `verify` loads `closedform` and `lehmer` only for the
checks that run them.  Those checks, their defaults and their labels live in
`verifier.VERIFY_CHECKS`; `verify` reads a certificate file, picks entries
and prints their results.  `json` is imported only by `XQPoly.loads` (a cache
file that differs from the bytes `cache_store` writes), `_json` and the
certificate reader, so `det` and `closed-form` never load it, `--format json`
included; `fractions` only where a denominator appears (see `poly`), and the
`reproduce` checks only by `reproduce`: `--only` takes its choices from
`REPRODUCE_ITEMS`, a copy of their names.

A cached Q_n is used only if it equals a fresh `det_recurrence(n)`, so a hit
saves no work and the cache is due for removal.  A file holding the bytes
`cache_store` writes, `fresh.dumps()`, is a hit without being parsed; only a
file that differs is read with `XQPoly.loads` and compared by value.

Exit codes: 0 success, 1 verification, domain or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .poly import XQPoly, _coef_json

# what reading a malformed cache or certificate file raises; json raises
# RecursionError on input nested too deep
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError,
              IndexError, RecursionError)


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
    try:
        with os.fdopen(fd, "w") as f:
            f.write(value.dumps())
        os.replace(tmp, _cache_path(n))
    except BaseException:
        os.unlink(tmp)
        raise


def cache_load(n: int, fresh: XQPoly):
    """`fresh`, the caller's `det_recurrence(n)`, if the cache file holds it."""
    path = cache_dir() and _cache_path(n)
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            text = f.read()
        # the bytes cache_store writes; only a file that differs is parsed
        if text != fresh.dumps() and XQPoly.loads(text) != fresh:
            raise ValueError(f"not the determinant of M({n})")
        return fresh
    except _MALFORMED as e:
        print(f"warning: ignoring corrupt cache file {path}: {e}", file=sys.stderr)
        return None


def cached_det(n: int) -> XQPoly:
    from .lehmer import det_recurrence

    value = det_recurrence(n)
    if cache_load(n, value) is None:
        cache_store(n, value)
    return value


# -- output helpers --------------------------------------------------------

def _verdict(ok, name, detail=None) -> str:
    """The `PASS  name` line, or `FAIL  name  (detail)` when a detail is given."""
    return (f"{'PASS' if ok else 'FAIL'}  {name}"
            + ("" if ok or detail is None else f"  ({detail})"))


def _json(value) -> str:
    import json  # loaded only by the commands that write JSON

    return json.dumps(value)


def _series_lines(s, fmt):
    if fmt == "json":
        payload = [c.to_json() if hasattr(c, "to_json") else _coef_json(c)
                   for c in s.coeffs]
        return [_json({"order": s.order, "coeffs": payload})]
    # a polynomial entry is a coefficient in X
    lines = []
    for i, c in enumerate(s.coeffs):
        text = c.to_text(var="X") if hasattr(c, "to_text") else str(c)
        lines.append(f"q^{i}: {text}")
    return lines


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


# sorted(reproduce.ITEMS), written out so that only `reproduce` loads its checks
REPRODUCE_ITEMS = ("andrews", "ansatz", "ratios", "sequence", "x2coeffs", "xcoeffs")

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

    c = sub.add_parser("closed-form", help="the finite closed form")
    c.add_argument("--n", type=_positive, required=True)

    g = sub.add_parser("guess", help="run a conjecture pipeline")
    g.add_argument("--mode", choices=["andrews", "ansatz"], required=True)
    g.add_argument("--amax", type=_nonnegative, required=True)
    g.add_argument("--nmax", type=_positive, required=True)

    v = sub.add_parser("verify", help="desk-scale proof checks")
    v.add_argument("--numeric", type=_positive, metavar="NMAX")
    v.add_argument("--coefficient", type=_positive, metavar="AMAX")
    grp = v.add_mutually_exclusive_group()
    grp.add_argument("--certificate", metavar="EXPR",
                     help="'XN' for the printed certificate, or a JSON file "
                          "with {num, den} in the (q,X,N,A) ring")
    grp.add_argument("--solve-certificate", type=_positive, metavar="CAP")

    s = sub.add_parser("series", help="truncated limit series")
    s.add_argument("--truncate", type=_nonnegative, required=True, metavar="K")
    s.add_argument("--x", choices=list(X_CHOICES) + ["symbolic"], default="symbolic",
                   help="value substituted for X; write -q and -q^2 as "
                        "--x=-q and --x=-q^2")
    s.add_argument("--invert", action="store_true",
                   help="also print the series reciprocal (scalar series only)")

    q = sub.add_parser("sequence", help="gap-constrained composition counts")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--count", type=_positive, required=True)

    r = sub.add_parser("rr-check", help="Rogers-Ramanujan specialization checks")
    r.add_argument("--order", type=_positive, required=True, metavar="K")

    rp = sub.add_parser("reproduce", help="regenerate and diff the source displays")
    rp.add_argument("--only", choices=REPRODUCE_ITEMS)
    for verb in (d, c, g, v, s, r, rp):
        verb.add_argument("--format", choices=["text", "json"], default="text")
    q.add_argument("--format", choices=["text", "json", "bfile"], default="text")
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
    except _MALFORMED as e:
        raise ValueError(f"malformed certificate file {expr}: "
                         f"{type(e).__name__}: {e}") from None


def run(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            code, lines, *notes = VERBS[args.verb](args)
            for line in lines:
                print(line)
            for note in notes:  # stderr, after the stdout lines
                print(note, file=sys.stderr)
            return code
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


# -- verbs: parsed arguments -> (exit code, stdout lines[, stderr note]) ----

def _q_n(args):
    """det and closed-form: Q_n as text, or as JSON by `dumps` without `json`."""
    if args.verb == "closed-form":
        from .closedform import theorem2_value

        value = theorem2_value(args.n)
    else:
        from .lehmer import det_oracle

        value = det_oracle(args.n) if args.method == "oracle" else cached_det(args.n)
    return 0, [value.dumps() if args.format == "json" else value.to_text()]


def _guess(args):
    from .discovery import synthesize_conjecture

    report = synthesize_conjecture(args.mode, args.amax, args.nmax)
    if args.format == "json":
        return 0, [_json(report.to_json())]
    lines = []
    for t in report.terms:
        if t.gaussian is not None:
            sign = "-" if t.sign < 0 else "+"
            lines.append(f"X^{t.a}: {sign} q^{t.q_shift} * "
                         f"GP(n{t.gaussian.m_offset:+d}, {t.gaussian.n_param})")
        else:
            lines.append(f"X^{t.a}: {t.rational.strip_content().to_text()}")
    if report.denominator_ratios is not None:
        lines.append(f"denominator ratios: "
                     f"{[p.to_text() for p in report.denominator_ratios]}")
    lines.append(f"holdout verified: {report.holdout_verified}")
    return 0, lines


def _verify(args):
    """The entries of `VERIFY_CHECKS` whose options are given, or else those
    with a default, each at its option's value."""
    from .verifier import VERIFY_CHECKS

    values = {c.option: getattr(args, c.option) for c in VERIFY_CHECKS}
    if values["certificate"] is not None:
        # a certificate file that cannot be read fails before any check runs
        values["certificate"] = _load_certificate(values["certificate"])
    chosen = ([(c, values[c.option]) for c in VERIFY_CHECKS if values[c.option] is not None]
              or [(c, c.default) for c in VERIFY_CHECKS if c.default is not None])
    ran = [check.run(value) for check, value in chosen]
    informational = [r for info, _ in ran for r in info]
    results = [r for _, res in ran for r in res]
    code = 0 if all(r.ok for r in results) else 1
    if args.format == "json":
        return code, [_json([r.to_json() for r in informational + results])]
    return code, ([_verdict(r.ok, r.name) for r in informational]
                  + [_verdict(r.ok, r.name, r.detail) for r in results])


def _series(args):
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
    lines = _series_lines(s, args.format)
    if args.invert:
        lines += ["reciprocal:"] + _series_lines(series_invert(s), args.format)
    return 0, lines


def _sequence(args):
    from .qseries import bfile_text, sequence_rpartitions

    seq = sequence_rpartitions(args.r, args.count)
    if args.format == "bfile":
        return 0, bfile_text(seq, offset=1).splitlines()
    return 0, [_json(seq) if args.format == "json" else ", ".join(str(v) for v in seq)]


def _rogers_ramanujan(args):
    from .qseries import (rr_product_truncated, sequence_rpartitions,
                          substitute_x, theorem1_truncated)

    K = args.order
    limit = theorem1_truncated(K)
    sum_side = substitute_x(limit, -1, 1)          # X = -q
    equal = sum_side == rr_product_truncated(K, {1, 4}, 5)
    gap_counts = [1] + sequence_rpartitions(2, K)
    coeffs = [int(c) for c in sum_side.scalar_list()]
    code = 0 if equal and coeffs == gap_counts else 1
    x_minus_one = [str(c) for c in substitute_x(limit, -1, 0).scalar_list()]
    x_minus_q2 = [str(c) for c in substitute_x(limit, -1, 2).scalar_list()]
    if args.format == "json":
        return code, [_json({
            "order": K,
            "first_rr_sum_equals_product": equal,
            "sum_side": [str(c) for c in coeffs],
            "gap2_counts": gap_counts,
            "x=-1": x_minus_one,
            "x=-q^2": x_minus_q2,
        })]
    return code, [_verdict(code == 0, f"X=-q specialization vs product over parts = "
                                      f"1,4 (mod 5) and gap>=2 counts, order {K}"),
                  "side-by-side (no identity asserted for X=-1):",
                  f"  X=-1  : {x_minus_one}",
                  f"  X=-q^2: {x_minus_q2}"]


def _reproduce(args):
    from .reproduce import reproduce

    results = reproduce(args.only)
    if args.format == "json":
        lines = [_json([{"item": n, "pass": p} if p else
                        {"item": n, "pass": p, "detail": str(d)}
                        for n, p, d in results])]
    else:
        lines = [_verdict(p, n, str(d)) for n, p, d in results]
    failed = [n for n, p, _ in results if not p]
    if failed:
        return 1, lines, f"first mismatch: {failed[0]}"
    return 0, lines


VERBS = {"det": _q_n, "closed-form": _q_n, "guess": _guess, "verify": _verify,
         "series": _series, "sequence": _sequence, "rr-check": _rogers_ramanujan,
         "reproduce": _reproduce}


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
