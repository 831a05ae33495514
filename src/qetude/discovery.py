"""Automated conjecture pipelines.

Two independent routes from determinant data to the closed form: spotting
q-binomial coefficients directly (sign, q-shift, parameter offset), and
degree-escalating rational-function fits in N = q^n followed by numerator
trial division and denominator ratio analysis.
"""

from __future__ import annotations

from collections import namedtuple

from .closedform import gaussian_poly
from .lehmer import det_recurrences
from .multi import (NQ_VARS, RationalFunc, eval_rational_at_qn,
                    interpolate_in_N, rational_agrees_at_qn,
                    trial_divide_numerator)
from .poly import QPoly, XQPoly


class GuessError(ValueError):
    """A pipeline could not fit the data; carries the first counterexample."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class CoefficientTable(namedtuple("CoefficientTable", "n_max rows")):
    """X-coefficients of the determinant for n = 1..n_max; row n has
    floor(n/2)+1 entries and entry 0 is the constant 1."""
    __slots__ = ()

    def row(self, n: int):
        return self.rows[n - 1]

    def coefficient(self, n: int, a: int) -> QPoly:
        """c_a(n); zero when the row is too short (n < 2a)."""
        row = self.row(n)
        return row[a] if a < len(row) else QPoly.zero()


def generate_table(n_max: int) -> CoefficientTable:
    if n_max < 1:
        raise ValueError("n_max must be positive")
    return CoefficientTable(n_max, tuple(
        tuple(v.coeff(a) for a in range(n // 2 + 1))
        for n, v in enumerate(det_recurrences(n_max), 1)))


class GaussianForm(namedtuple("GaussianForm", "m_offset n_param")):
    """GP(n + m_offset, n_param), to be scaled by sign * q^q_shift."""
    __slots__ = ()


class GuessTerm(namedtuple("GuessTerm", "a sign q_shift gaussian rational",
                           defaults=(None, None))):
    """c_a(n) as sign * q^q_shift * a GaussianForm, or as a RationalFunc of
    (N, q) that already carries its sign and shift."""
    __slots__ = ()

    def predict(self, n: int) -> QPoly:
        """The guessed c_a(n) as an explicit polynomial."""
        if self.gaussian is not None:
            g = gaussian_poly(n + self.gaussian.m_offset, self.gaussian.n_param)
            return (self.sign * g).shift(self.q_shift)
        return eval_rational_at_qn(self.rational, n)

    def agrees(self, n: int, value: QPoly) -> bool:
        if self.gaussian is not None:
            return self.predict(n) == value
        return rational_agrees_at_qn(self.rational, n, value)


class GuessReport(namedtuple("GuessReport", "mode a_max terms data_range holdout_verified "
                             "denominator_ratios denominator_signs",
                             defaults=(None, None))):
    """A pipeline's terms for a = 0..a_max, a tuple; an ansatz report also
    carries the denominator fields analyze_denominators derives."""
    __slots__ = ()

    def to_json(self):
        terms = []
        for t in self.terms:
            entry = {"a": t.a, "sign": t.sign, "q_shift": t.q_shift}
            if t.gaussian is not None:
                entry["gaussian"] = t.gaussian._asdict()
            else:
                entry["rational"] = t.rational.to_json()
            terms.append(entry)
        out = {"mode": self.mode, "a_max": self.a_max,
               "data_range": list(self.data_range),
               "holdout_verified": self.holdout_verified, "terms": terms}
        if self.denominator_ratios is not None:
            out["denominator_ratios"] = [p.to_json() for p in self.denominator_ratios]
        if self.denominator_signs is not None:
            out["denominator_signs"] = self.denominator_signs
        return out


def _check_constant_term(table: CoefficientTable) -> None:
    """Both pipelines take c_0(n) = 1 as given; reject a table where it is not."""
    for n in range(1, table.n_max + 1):
        if table.coefficient(n, 0) != QPoly.one():
            raise GuessError("constant coefficient is not 1", n)


def andrews_guess(table: CoefficientTable, a: int) -> GuessTerm:
    """Recognize c_a(n) as sign * q^shift * GP(n + offset, a).

    The parameter m is inferred from deg = m*a rather than scanned from a
    database; the last two table rows are held out for verification.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if table.n_max < 2 * a + 4:
        raise ValueError("table too short for this a")
    if a == 0:
        _check_constant_term(table)
        return GuessTerm(0, 1, 0, gaussian=GaussianForm(0, 0))

    ns = list(range(2 * a, table.n_max + 1))
    fit, holdout = ns[:-2], ns[-2:]
    sign = shift = offset = None
    for n in fit:
        c = table.coefficient(n, a)
        s = c.sign_uniform()
        if s not in (1, -1):
            raise GuessError("no Gaussian fit: mixed-sign coefficient", n)
        e = c.low_degree()
        p = (s * c).unshift(e)
        deg = p.degree()
        if deg % a:
            raise GuessError("no Gaussian fit: degree not a multiple of a", n)
        m = deg // a
        if p != gaussian_poly(m, a):
            raise GuessError("no Gaussian fit: not a q-binomial", n)
        if sign is None:
            sign, shift, offset = s, e, m - n
        elif (s, e, m - n) != (sign, shift, offset):
            raise GuessError("no Gaussian fit: parameters drift across n", n)
    term = GuessTerm(a, sign, shift, gaussian=GaussianForm(offset, a))
    for n in holdout:
        if not term.agrees(n, table.coefficient(n, a)):
            raise GuessError("no Gaussian fit: holdout mismatch", n)
    return term


def ansatz_guess(table: CoefficientTable, a: int) -> GuessTerm:
    """Fit c_a(n) with a polynomial in N = q^n of escalating degree.

    Starts at degree 0 and raises the degree until the next two data points
    validate the interpolant; capped at degree a + 2 (the true degree is a).
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if table.n_max < 3 * a + 3:
        raise ValueError("table too short for this a")
    sign = -1 if a % 2 else 1
    if a == 0:
        _check_constant_term(table)
        return GuessTerm(0, 1, 0, rational=RationalFunc.const(NQ_VARS, 1))

    ns = list(range(2 * a, table.n_max + 1))
    data = [(n, QPoly.term(n), table.coefficient(n, a)) for n in ns]
    for degree in range(0, a + 3):
        if degree + 3 > len(data):
            break
        points = [(node, value) for _, node, value in data[: degree + 1]]
        fitted = interpolate_in_N(points, degree)
        # two held-out points decide acceptance; the rest of the table must
        # then agree too, otherwise keep escalating
        ok = all(rational_agrees_at_qn(fitted, n, value)
                 for n, _, value in data[degree + 1:])
        if ok:
            return GuessTerm(a, sign, a * (a - 1), rational=fitted)
    raise GuessError("ansatz failed", a)


def analyze_denominators(report: GuessReport) -> GuessReport:
    """Strip the (N - q^j) numerator roots from each ansatz term and expand the
    denominator ratios d(a)/d(a-1); each must equal q^a (1 - q^a) after a
    sign normalization.  Returns a copy of report with the ratios and signs;
    report itself is unchanged."""
    if report.mode != "ansatz":
        raise ValueError("denominator analysis needs an ansatz report")
    leftovers = {}
    for term in report.terms:
        a = term.a
        if a == 0:
            continue
        roots, rest = trial_divide_numerator(term.rational, 2 * a + 2)
        if roots != list(range(a, 2 * a)):
            raise GuessError(f"denominator pattern broken at {a}: roots {roots}", a)
        # rest = u(q)/v(q) with d(a) = (-1)^a v/u as a rational function of q
        u = rest.num.to_qpoly()
        v = rest.den.to_qpoly()
        leftovers[a] = (u, v)
    ratios, signs = [], []
    for a in range(2, report.a_max + 1):
        u_a, v_a = leftovers[a]
        u_p, v_p = leftovers[a - 1]
        num = v_a * u_p
        den = u_a * v_p
        quo, rem = num.divmod(den)
        if not rem.is_zero():
            raise GuessError(f"denominator pattern broken at {a}: inexact ratio", a)
        # normalize an overall sign out of the ratio and record it
        if quo.sign_uniform() == -1:
            quo, s = -quo, -1
        else:
            s = 1
        if quo != QPoly({a: 1, 2 * a: -1}):
            raise GuessError(f"denominator pattern broken at {a}: ratio {quo}", a)
        ratios.append(quo)
        signs.append(s)
    return report._replace(denominator_ratios=tuple(ratios), denominator_signs=tuple(signs))


def synthesize_conjecture(mode: str, a_max: int, n_max: int) -> GuessReport:
    """Run a whole pipeline for a = 0..a_max and validate the packaged guess
    against every table row."""
    if mode not in ("andrews", "ansatz"):
        raise ValueError(f"unknown mode {mode!r}")
    if a_max < 0 or n_max < 2 * a_max + 6:
        raise ValueError("need n_max >= 2*a_max + 6")
    table = generate_table(n_max)
    return synthesize_from_table(mode, a_max, table)


def synthesize_from_table(mode: str, a_max: int, table: CoefficientTable) -> GuessReport:
    guess = andrews_guess if mode == "andrews" else ansatz_guess
    terms = tuple(guess(table, a) for a in range(a_max + 1))
    report = GuessReport(mode, a_max, terms, (1, table.n_max), True)
    # every conjectured X-degree must reproduce every row of the table
    for n in range(1, table.n_max + 1):
        for t in terms[: min(a_max, n // 2) + 1]:
            if not t.agrees(n, table.coefficient(n, t.a)):
                raise GuessError("conjecture does not reproduce the data", n)
    return analyze_denominators(report) if mode == "ansatz" else report


def rebuild_xqpoly(report: GuessReport, n: int) -> XQPoly:
    """Evaluate a report's terms at a concrete n and assemble the X-polynomial."""
    out = {}
    for t in report.terms:
        if t.a > n // 2:
            continue
        p = t.predict(n)
        if not p.is_zero():
            out[t.a] = p
    return XQPoly(out)
