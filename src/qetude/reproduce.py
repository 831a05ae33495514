"""Regenerate every numeric and polynomial display backing the project and
diff it against frozen expected forms.

The expected strings below were transcribed by hand (terms reordered into
ascending exponents where the source listed them out of order); the checks
recompute everything from scratch and compare byte-for-byte where the format
is textual, and by cross-multiplied equality for rational functions.  Each
check imports its own layers, so importing ITEMS is cheap.
"""

from __future__ import annotations

X_COEFFS_N1_8 = [
    "0",
    "-1",
    "-1 - q",
    "-1 - q - q^2",
    "-1 - q - q^2 - q^3",
    "-1 - q - q^2 - q^3 - q^4",
    "-1 - q - q^2 - q^3 - q^4 - q^5",
    "-1 - q - q^2 - q^3 - q^4 - q^5 - q^6",
]

X2_COEFFS_N1_10 = [
    "0",
    "0",
    "0",
    "q^2",
    "q^2 + q^3 + q^4",
    "q^2 + q^3 + 2*q^4 + q^5 + q^6",
    "q^2 + q^3 + 2*q^4 + 2*q^5 + 2*q^6 + q^7 + q^8",
    "q^2 + q^3 + 2*q^4 + 2*q^5 + 3*q^6 + 2*q^7 + 2*q^8 + q^9 + q^10",
    "q^2 + q^3 + 2*q^4 + 2*q^5 + 3*q^6 + 3*q^7 + 3*q^8 + 2*q^9 + 2*q^10 + q^11 + q^12",
    "q^2 + q^3 + 2*q^4 + 2*q^5 + 3*q^6 + 3*q^7 + 4*q^8 + 3*q^9 + 3*q^10 + 2*q^11 + 2*q^12 + q^13 + q^14",
]

# (sign, q_shift, m_offset) of the five q-binomial conjectures, a = 1..5
GAUSSIAN_CONJECTURES = [(-1, 0, -2), (1, 2, -4), (-1, 6, -6), (1, 12, -8), (-1, 20, -10)]

DENOMINATOR_RATIOS = ["q^2 - q^4", "q^3 - q^6", "q^4 - q^8", "q^5 - q^10"]

SEQUENCE_TERMS = [1, 2, 4, 7, 13, 23, 41, 72, 127, 222, 388, 677, 1179, 2052,
                  3569, 6203, 10778, 18722, 32513, 56455]


def _bullet_rationals():
    """The five fitted coefficient displays, built factor by factor."""
    from .multi import MPoly, NQ_VARS, RationalFunc

    N = MPoly.var(NQ_VARS, "N")
    q = MPoly.var(NQ_VARS, "q")
    one = MPoly.one(NQ_VARS)

    def prod(lo, hi):
        p = one
        for j in range(lo, hi + 1):
            p = p * (N - q**j)
        return p

    cyc2, cyc3, cyc4, cyc5 = one + q, q**2 + q + one, q**2 + one, \
        q**4 + q**3 + q**2 + q + one
    return {
        1: RationalFunc(N - q, q * (one - q)),
        2: RationalFunc(prod(2, 3), q**3 * cyc2 * (one - q) ** 2),
        3: RationalFunc(-prod(3, 5), q**6 * cyc2 * cyc3 * (q - one) ** 3),
        4: RationalFunc(prod(4, 7), q**10 * cyc4 * (q - one) ** 4 * cyc2**2 * cyc3),
        5: RationalFunc(-prod(5, 9),
                        q**15 * (q - one) ** 5 * cyc5 * cyc2**2 * cyc3 * cyc4),
    }


def _check_xcoeffs():
    from .lehmer import det_recurrences

    got = [v.coeff(1).to_text() for v in det_recurrences(8)]
    return got == X_COEFFS_N1_8, got

def _check_x2coeffs():
    from .lehmer import det_recurrences

    got = [v.coeff(2).to_text() for v in det_recurrences(10)]
    return got == X2_COEFFS_N1_10, got

def _check_andrews():
    from .discovery import synthesize_conjecture

    report = synthesize_conjecture("andrews", 5, 20)
    got = [(t.sign, t.q_shift, t.gaussian.m_offset) for t in report.terms[1:]]
    return got == GAUSSIAN_CONJECTURES and report.holdout_verified, got

def _check_ansatz(report):
    from .multi import rational_equal

    bullets = _bullet_rationals()
    mism = [t.a for t in report.terms[1:]
            if not rational_equal(t.rational, bullets[t.a])]
    return not mism, mism or "all five bullets match"

def _check_ratios(report):
    got = [p.to_text() for p in report.denominator_ratios]
    return got == DENOMINATOR_RATIOS, got

def _check_sequence():
    from .qseries import sequence_rpartitions, substitute_x, theorem1_truncated
    from .series import series_invert

    direct = sequence_rpartitions(-1, 20)
    via_series = series_invert(substitute_x(theorem1_truncated(20), 1, 1))
    coeffs = [int(c) for c in via_series.scalar_list()[1:]]
    ok = direct == SEQUENCE_TERMS and coeffs == SEQUENCE_TERMS
    return ok, {"counting": direct, "series": coeffs}


ITEMS = {
    "xcoeffs": _check_xcoeffs,
    "x2coeffs": _check_x2coeffs,
    "andrews": _check_andrews,
    "ansatz": _check_ansatz,
    "ratios": _check_ratios,
    "sequence": _check_sequence,
}

# items that read the ansatz pipeline's report instead of running it
ANSATZ_ITEMS = ("ansatz", "ratios")


def reproduce(only=None):
    """Run all (or one) display checks; returns list of (item, ok, detail).

    The ansatz pipeline runs at most once per call, and the items that read
    it share its report, a value none of them can change.
    """
    if only is not None and only not in ITEMS:
        raise ValueError(f"unknown reproduce item {only!r}; "
                         f"choose from {sorted(ITEMS)}")
    report = None
    out = []
    for name, fn in ITEMS.items():
        if only is not None and name != only:
            continue
        if name in ANSATZ_ITEMS:
            if report is None:
                from .discovery import synthesize_conjecture
                report = synthesize_conjecture("ansatz", 5, 24)
            ok, detail = fn(report)
        else:
            ok, detail = fn()
        out.append((name, ok, detail))
    return out
