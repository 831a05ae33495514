"""Automated conjecture pipelines.

Two independent routes from determinant data to the closed form: spotting
q-binomial coefficients directly (sign, q-shift, parameter offset), and
degree-escalating rational-function fits in N = q^n followed by numerator
trial division and denominator ratio analysis.

Only the second route runs on the multivariate ring, so `multi` is imported
inside the ansatz code (`ansatz_guess`, `analyze_denominators` and the
rational branches of `GuessTerm`): the Andrews route never loads it.

The ansatz rejects a degree modulo a prime before any exact work: each
c_a(n) is evaluated once at one point, and a degree whose interpolant through
the first d+1 points misses a later point there is not fitted
(`_lowest_degree_mod_p`).  The exact fit and its exact check then run at the
degree the screen passes, which is the degree the exact search alone accepts.
"""

from __future__ import annotations

from collections import namedtuple

from .closedform import gaussian_poly
from .lehmer import det_recurrence
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
        tuple(map(det_recurrence(n).coeff, range(n // 2 + 1)))
        for n in range(1, n_max + 1)))


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
        from .multi import eval_rational_at_qn

        return eval_rational_at_qn(self.rational, n)

    def agrees(self, n: int, value: QPoly) -> bool:
        if self.gaussian is not None:
            return self.predict(n) == value
        from .multi import rational_agrees_at_qn

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


def _lowest_degree_mod_p(data) -> int:
    """A degree below which `ansatz_guess` cannot accept a fit to data, its
    list of (n, q^n, c_a(n)): 0 when the screen is off.

    Each c_a(n) is evaluated once, at q = q0 = _POINT[0] modulo _PRIME, and
    the Newton divided differences of those values at the nodes q0^n are
    taken, each kept as a numerator over a nonzero denominator so that no
    inverse is needed.  The interpolant through the first d+1 points meets
    every later point exactly when the differences of order above d are all
    zero, so the order of the last nonzero one is the least degree that
    passes modulo _PRIME.  Evaluation at a point is a ring homomorphism, and
    the exact interpolant maps to the one modulo _PRIME while no two nodes
    meet there: an exact fit at degree d, checked against every later row,
    survives it.  The screen is off when a value has a coefficient that is
    not an int, or two nodes q0^i and q0^j meet modulo _PRIME."""
    from .multi import _POINT, _PRIME

    powers = [1]  # q0^e modulo _PRIME, for every exponent of data
    for _ in range(max(max([n, *value.c]) for n, _, value in data)):
        powers.append(powers[-1] * _POINT[0] % _PRIME)
    xs = [powers[n] for n, _, _ in data]
    num, den = [], [1] * len(data)
    for _, _, value in data:
        if any(type(v) is not int for v in value.c.values()):
            return 0
        num.append(sum(v * powers[e] for e, v in value.c.items()) % _PRIME)
    for k in range(1, len(num)):
        for i in range(len(num) - 1, k - 1, -1):
            dx = (xs[i] - xs[i - k]) % _PRIME
            if not dx:
                return 0
            num[i], den[i] = ((num[i] * den[i - 1] - num[i - 1] * den[i]) % _PRIME,
                              den[i] * den[i - 1] % _PRIME * dx % _PRIME)
    return max((k for k, v in enumerate(num) if v), default=0)


def _check_ansatz_bound(n_max: int, a: int) -> None:
    """`ansatz_guess` fits c_a(n) on the rows n = 2a..n_max and needs
    n_max >= 3a + 3, a + 4 rows, so that a fit of the true degree a keeps
    rows held out; raise ValueError naming a and the bound otherwise."""
    if n_max < 3 * a + 3:
        raise ValueError(f"table too short for a = {a}: the ansatz needs "
                         f"n_max >= 3a + 3 = {3 * a + 3}")


def ansatz_guess(table: CoefficientTable, a: int) -> GuessTerm:
    """Fit c_a(n) with a polynomial in N = q^n of escalating degree.

    The degree starts at 0 and rises until the interpolant through the first
    d+1 rows (n = 2a, ..., 2a + d) meets every later row exactly, keeping at
    least two rows held out; it is capped at degree a + 2 (the true degree is
    a).  Degrees that `_lowest_degree_mod_p` rejects are skipped without
    fitting: the exact fit and check run only from the screen's degree on.
    The check evaluates the fit's denominator, free of N, once, and its
    numerator once per later row.
    """
    from .multi import NQ_VARS, RationalFunc, interpolate_in_N

    if a < 0:
        raise ValueError("a must be nonnegative")
    _check_ansatz_bound(table.n_max, a)
    sign = -1 if a % 2 else 1
    if a == 0:
        _check_constant_term(table)
        return GuessTerm(0, 1, 0, rational=RationalFunc.const(NQ_VARS, 1))

    ns = list(range(2 * a, table.n_max + 1))
    data = [(n, QPoly.term(n), table.coefficient(n, a)) for n in ns]
    for degree in range(_lowest_degree_mod_p(data), a + 3):
        if degree + 3 > len(data):
            break
        points = [(node, value) for _, node, value in data[: degree + 1]]
        fitted = interpolate_in_N(points, degree)
        den = fitted.den.to_qpoly()
        if all(fitted.num.eval_qpower("N", n) == value * den
               for n, _, value in data[degree + 1:]):
            return GuessTerm(a, sign, a * (a - 1), rational=fitted)
    raise GuessError("ansatz failed", a)


def analyze_denominators(report: GuessReport) -> GuessReport:
    """Strip the (N - q^j) numerator roots from each ansatz term and expand the
    denominator ratios d(a)/d(a-1); each must equal q^a (1 - q^a).  Returns a
    copy of report with the ratios and their signs, all 1; report itself is
    unchanged."""
    from .multi import trial_divide_numerator

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
    ratios = []
    for a in range(2, report.a_max + 1):
        u_a, v_a = leftovers[a]
        u_p, v_p = leftovers[a - 1]
        num = v_a * u_p
        den = u_a * v_p
        quo, rem = num.divmod(den)
        if not rem.is_zero():
            raise GuessError(f"denominator pattern broken at {a}: inexact ratio", a)
        if quo != QPoly({a: 1, 2 * a: -1}):
            raise GuessError(f"denominator pattern broken at {a}: ratio {quo}", a)
        ratios.append(quo)
    # a passing ratio is q^a - q^(2a) itself, so every sign is 1
    return report._replace(denominator_ratios=tuple(ratios),
                           denominator_signs=(1,) * len(ratios))


def synthesize_conjecture(mode: str, a_max: int, n_max: int) -> GuessReport:
    """Run a whole pipeline for a = 0..a_max and validate the packaged guess
    against every table row."""
    if mode not in ("andrews", "ansatz"):
        raise ValueError(f"unknown mode {mode!r}")
    if a_max < 0 or n_max < 2 * a_max + 6:
        raise ValueError("need n_max >= 2*a_max + 6")
    if mode == "ansatz":
        # ansatz_guess's own bound at its largest a, before the table is built
        _check_ansatz_bound(n_max, a_max)
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
