"""Run one qetude CLI command with timing spans around every layer's entry points.

Usage: python3 perfbench/shim.py OUT.json ARGV...

The command runs in this process through ``qetude.cli.run(ARGV)``, so its
stdout and exit code are those of ``python -m qetude.cli ARGV``.  Before it
runs, each entry point named in ENTRY_POINTS is replaced by a wrapper that
records a span (name, start, end, parent).  The replacement is made in every
namespace of the ``qetude`` package that holds the function: module globals
(so ``from .x import f`` aliases are traced too) and class dictionaries (so
``__radd__ = __add__`` aliases are traced, and classmethods are wrapped
through their ``__func__``).  A name that no longer exists is listed as
absent rather than failing the command.

Spans stay in memory while the command runs and are written to OUT.json when
it ends, together with a few counters read from entry-point results.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

# Public entry points per module of the qetude package; "Class.method" names a
# method.  The benchmark reports calls and self time for each.
ENTRY_POINTS = {
    "lehmer": ["det_recurrence", "det_oracle"],
    "closedform": ["gaussian_poly", "theorem2_value"],
    "poly": ["QPoly.__mul__", "QPoly.__add__", "QPoly.divmod",
             "XQPoly.__sub__", "XQPoly.to_text", "XQPoly.loads"],
    "multi": ["MPoly.__mul__", "MPoly.try_exact_div", "RationalFunc.__add__",
              "interpolate_in_N", "eval_rational_at_qn", "rational_agrees_at_qn"],
    "discovery": ["synthesize_conjecture", "andrews_guess", "ansatz_guess",
                  "rebuild_xqpoly", "analyze_denominators"],
    "verifier": ["check_recurrence_numeric", "check_coefficient_identity",
                 "check_certificate", "solve_certificate"],
    "series": ["QSeries.__mul__", "pochhammer_reciprocal", "series_invert"],
    "qseries": ["theorem1_truncated", "substitute_x", "rr_product_truncated",
                "count_r_partitions"],
    "reproduce": ["reproduce"],
    "cli": ["cache_load", "cache_store"],
}

def span_names():
    return [f"{mod}.{name}" for mod, names in ENTRY_POINTS.items() for name in names]


class Tracer:
    """Spans in parallel arrays; the parent of a span is its index, or -1."""

    def __init__(self, hooks=None):
        self.names = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.hooks = hooks or {}

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, stack = (self.name_id, self.start, self.end,
                                              self.parent, self.stack)
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def to_json(self):
        return {"names": self.names, "name_id": self.name_id.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist()}


def _namespaces():
    """(owner, dict) for every qetude module and every class it defines."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qetude" or modname.startswith("qetude.")):
            continue
        yield mod, vars(mod)
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == modname:
                yield value, vars(value)


def install(tracer, entry_points=ENTRY_POINTS):
    """Wrap each entry point and rebind all its aliases; return absent names."""
    namespaces = list(_namespaces())
    absent = []
    for modname, names in entry_points.items():
        mod = sys.modules.get(f"qetude.{modname}")
        for name in names:
            label = f"{modname}.{name}"
            owner = mod
            *path, attr = name.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not callable(fn):
                absent.append(label)
                continue
            wrapped = tracer.wrap(label, fn)
            for holder, ns in namespaces:
                for key, value in list(ns.items()):
                    if value is fn:
                        setattr(holder, key, wrapped)
                    elif (isinstance(value, (classmethod, staticmethod))
                          and value.__func__ is fn):
                        setattr(holder, key, type(value)(wrapped))
    return absent


class Counters:
    """Facts read from entry-point results: cache outcome, ansatz acceptance,
    and the largest determinant computed by the recurrence."""

    def __init__(self):
        self.values = {"cache_hits": 0, "cache_misses": 0, "ansatz_terms": 0}
        self.largest_det = None

    def hooks(self):
        return {"cli.cache_load": self.cache_load,
                "discovery.ansatz_guess": self.ansatz_guess,
                "lehmer.det_recurrence": self.det_recurrence}

    def cache_load(self, args, result):
        if os.environ.get("QETUDE_CACHE"):
            self.values["cache_hits" if result is not None else "cache_misses"] += 1

    def ansatz_guess(self, args, result):
        if getattr(result, "a", 0) >= 1:
            self.values["ansatz_terms"] += 1

    def det_recurrence(self, args, result):
        n = args[0] if args else 0
        if self.largest_det is None or n > self.largest_det[0]:
            self.largest_det = (n, result)

    def to_json(self):
        out = dict(self.values)
        if self.largest_det is not None:
            n, value = self.largest_det
            try:
                terms = [c for p in value.coeffs.values() for _, c in p.terms()]
                bits = max(abs(c.numerator).bit_length() for c in terms)
            except (AttributeError, TypeError, ValueError):
                return out  # XQPoly's layout changed: leave the sizes unmeasured
            out.update(det_n=n, det_terms=len(terms), det_coeff_bits=bits)
        return out


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    counters = Counters()
    tracer = Tracer(counters.hooks())
    from qetude import cli
    absent = install(tracer)
    t_run = time.perf_counter()
    code = 1
    try:
        code = cli.run(cli_argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 1
    finally:
        t_end = time.perf_counter()
        sys.stdout.flush()
        with open(out_path, "w") as f:
            json.dump({"spans": tracer.to_json(), "absent": absent,
                       "counters": counters.to_json(), "run": [t_run, t_end]}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
