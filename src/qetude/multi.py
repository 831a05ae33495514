"""Sparse multivariate polynomials and unreduced rational functions.

An `MPoly` is a map exponent tuple -> rational coefficient, kept canonical by
the sparse-term kernel of `poly` (see its module docstring), which also does
its sums and powers and holds the display rules and the coefficient codec it
prints and reads with.  The ansatz, the coefficient identity, the certificate
solver and the Bareiss oracle stay integral almost throughout, so their
arithmetic runs on plain ints; the last two share one fraction-free
elimination, `_bareiss`.  It defers the rescaling of a row whose pivot-column
entry is zero, since those factors telescope, and brings the row up to date
with one exact division when it is next used (see its docstring).  Values are
immutable after construction (`poly._Value`; the term maps are read-only
views).

Every term is keyed by its exponent tuple, the public representation, in
products and division alike.  A product is one loop over pairs of terms that
adds their exponent tuples.  Exact division reduces inside the degree box an
exact quotient lies in (see `MPoly.try_exact_div`); the one large division,
by the N - q^j factors of a fitted numerator, is synthetic (see
`trial_divide_numerator`).

Rational functions never compute GCDs: equality is decided by
cross-multiplication, so numerators and denominators stay unreduced.  The
Lagrange interpolant `interpolate_in_N` is the sum of its terms v_i L_i(N) /
d_i with d_i = prod_{j != i} (node_i - node_j); adding them one at a time
gives den = prod_i d_i and num = sum_i v_i L_i(N) prod_{j != i} d_j, and that
closed shape is built in `QPoly` arithmetic and lifted to (N, q) once.

The one symbolic substitution is `scale_var`, name -> by**power * name.  With
a nonnegative power it maps distinct monomials to distinct monomials, so a
polynomial is zero exactly when its image is: an identity in N/q or A/q is
checked after N -> qN or A -> qA, with no negative powers and no division.
"""

from __future__ import annotations

from operator import add, sub
from types import MappingProxyType

from .poly import (QPoly, _Value, _add_terms, _canonical, _coef_from_json,
                   _coef_json, _div_coef, _exponent, _is_scalar, _merge, _parse,
                   _power, _power_text, _signed_sum, _term)

# the fixed variable orders used across the package
NQ_VARS = ("N", "q")
CERT_VARS = ("q", "X", "N", "A")
HALF_VARS = ("Y", "P")


def _degrees(terms) -> list:
    """Largest exponent of each variable over a nonempty term map."""
    return list(map(max, zip(*terms)))


class MPoly(_Value):
    """Sparse polynomial in a fixed tuple of variables.

    terms: read-only map from exponent tuples to coefficients, each in the
    canonical form of `poly._coef`.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        vars = tuple(vars)
        pairs = [(tuple(map(_exponent, exps)), v) for exps, v in
                 (terms.items() if hasattr(terms, "items") else terms or ())]
        if any(len(exps) != len(vars) for exps, _ in pairs):
            raise ValueError("exponent tuple arity mismatch")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", MappingProxyType(_merge(pairs)))

    @classmethod
    def _make(cls, vars: tuple, terms: dict) -> "MPoly":
        """Wrap a dict that is already canonical: exponent tuples of the
        right arity without negative entries, no zero values, integral values
        stored as ints.  The dict is owned by the new value from here on."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", MappingProxyType(terms))
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def const(cls, vars, v):
        return cls(vars, {(0,) * len(vars): v})

    @classmethod
    def one(cls, vars):
        return cls.const(vars, 1)

    @classmethod
    def var(cls, vars, name, power: int = 1):
        vars = tuple(vars)
        i = vars.index(name)
        exps = tuple(power if j == i else 0 for j in range(len(vars)))
        return cls(vars, {exps: 1})

    @classmethod
    def from_qpoly(cls, p: QPoly, vars):
        """Embed a polynomial in q into the ring over vars, which includes q."""
        vars = tuple(vars)
        i = vars.index("q")
        return cls._make(vars, {tuple(e if j == i else 0 for j in range(len(vars))): v
                                for e, v in p.c.items()})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, name: str) -> int:
        """Max exponent of one variable; -1 for the zero polynomial."""
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def constant(self):
        return self.terms.get((0,) * len(self.vars), 0)

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable set mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            self._check(other)
            return other
        if _is_scalar(other):
            return MPoly.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly._make(self.vars, _add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return MPoly._make(self.vars, {e: -v for e, v in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c = {}
        get = c.get
        right = list(other.terms.items())
        for e1, v1 in self.terms.items():
            for e2, v2 in right:
                e = tuple(map(add, e1, e2))
                c[e] = get(e, 0) + v1 * v2
        return MPoly._make(self.vars, _canonical(c))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, MPoly.one(self.vars))

    def __eq__(self, other):
        if _is_scalar(other):
            other = MPoly.const(self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar
        if self.is_constant():
            return hash(self.constant())
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    # -- division ----------------------------------------------------------

    def try_exact_div(self, other: "MPoly"):
        """Quotient self/other if the division is exact, else None.

        Reduction by the lex-leading term of `other`; terminates with an exact
        quotient exactly when other divides self.  A quotient coefficient is an
        exact integer quotient when the divisor's leading coefficient divides
        the current leading term, and a Fraction otherwise.

        A one-term divisor divides term by term in one pass.  Otherwise the
        remainder is a dict on exponent tuples whose lead is its `max`, and
        the division returns None as soon as that lead is not divisible by
        the divisor's.  An exact quotient Q has deg_i(Q) = deg_i(self) -
        deg_i(other), and every quotient term the reduction produces is a term
        of Q.  So the division also returns None up front when the divisor is
        of higher degree than self in some variable, and as soon as a
        quotient exponent leaves that degree box, which bounds the loop.
        """
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if len(other.terms) == 1:
            (de, dcoef), = other.terms.items()
            quo = {}
            for e, v in self.terms.items():
                qe = tuple(map(sub, e, de))
                if min(qe) < 0:
                    return None
                quo[qe] = _div_coef(v, dcoef)
            return MPoly._make(self.vars, quo)
        if self.is_zero():
            return MPoly._make(self.vars, {})
        box = list(map(sub, _degrees(self.terms), _degrees(other.terms)))
        if min(box) < 0:
            return None
        lower = dict(other.terms)
        dlead = max(lower)
        dcoef = lower.pop(dlead)
        rem = dict(self.terms)
        quo = {}
        while rem:
            e = max(rem)
            qe = tuple(map(sub, e, dlead))
            if not all(0 <= x <= b for x, b in zip(qe, box)):
                return None
            f = _div_coef(rem.pop(e), dcoef)
            # the lead strictly decreases, so each quotient exponent is new
            quo[qe] = f
            for e2, v2 in lower.items():
                k = tuple(map(add, qe, e2))
                r = rem.get(k, 0) - f * v2
                if r:
                    rem[k] = r
                else:
                    del rem[k]
        return MPoly._make(self.vars, quo)

    def exact_div(self, other: "MPoly"):
        q = self.try_exact_div(other)
        if q is None:
            raise ValueError("inexact multivariate division")
        return q

    # -- substitutions -----------------------------------------------------

    def scale_var(self, name: str, by: str, power: int = 1):
        """Substitute name -> by**power * name (e.g. A -> q*A): add power
        times the exponent of `name` to the exponent of `by`."""
        i, j = self.vars.index(name), self.vars.index(by)
        # MPoly(...) merges collided terms and rejects a negative exponent
        return MPoly(self.vars, [(e[:j] + (e[j] + power * e[i],) + e[j + 1:], v)
                                 for e, v in self.terms.items()])

    def coeffs_in(self, name: str):
        """Split by powers of one variable: dict exp -> MPoly (same var tuple,
        that variable's exponent zeroed)."""
        i = self.vars.index(name)
        out = {}
        for e, v in self.terms.items():
            out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = v
        return {k: MPoly._make(self.vars, t) for k, t in out.items()}

    def to_qpoly(self) -> QPoly:
        """Collapse to a polynomial in q; all other variables must be
        absent."""
        i = self.vars.index("q")
        c = {}
        for e, v in self.terms.items():
            if any(x != 0 for j, x in enumerate(e) if j != i):
                raise ValueError("polynomial involves more than q")
            c[e[i]] = v
        return QPoly(c)

    def eval_qpower(self, name: str, power: int) -> QPoly:
        """Evaluate at name = q**power, collapsing to a QPoly in q.

        Only valid when the remaining variable is q alone.
        """
        i = self.vars.index(name)
        j = self.vars.index("q")
        extra = [k for k in range(len(self.vars)) if k != i and k != j]
        if extra and any(e[k] for e in self.terms for k in extra):
            raise ValueError("extra variables present")
        c = {}
        get = c.get
        for e, v in self.terms.items():
            k = e[j] + power * e[i]
            c[k] = get(k, 0) + v
        if power < 0:
            return QPoly(c)
        return QPoly._make(_canonical(c))

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {"vars": list(self.vars),
                "terms": [[list(e)] + _coef_json(v) for e, v in sorted(self.terms.items())]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data["vars"]),
                   [(tuple(e), _coef_from_json(n, d)) for e, n, d in data["terms"]])

    @classmethod
    def from_text(cls, vars, s: str) -> "MPoly":
        """Parse `to_text` output in the ring over vars."""
        return _parse(s, {n: cls.var(vars, n) for n in vars}, cls.one(vars))

    def to_text(self) -> str:
        terms = []
        for e, v in sorted(self.terms.items()):
            mono = "*".join([_power_text(n, x) for n, x in zip(self.vars, e) if x])
            terms.append((v < 0, _term(abs(v), mono)))
        return _signed_sum(terms)

    def __repr__(self):
        return f"MPoly({self.to_text()!r})"


def _bareiss(rows: list, n_cols: int):
    """Fraction-free (Bareiss) elimination of a list of MPoly rows, in place,
    over the first n_cols columns; later columns, such as a right-hand side,
    are carried along.  Each column's pivot is its first nonzero entry at or
    below the current row.  Returns the pivot columns (the k-th pivot is
    rows[k][cols[k]]) and the sign of the row permutation.

    With pivots p_0, p_1, ... and p_(-1) = 1, step k takes every row below the
    pivot row to (p_k row - lead top) / p_(k-1).  A row whose lead is zero
    would only be scaled by p_k / p_(k-1), and over consecutive such steps the
    factors telescope, so the scaling is deferred: `done[i]` counts the steps
    rows[i] has been brought through, and a row last brought through s steps
    stands for its eager value times p_(s-1) / p_(k-1) before step k.  Its
    pivot-column entry is zero exactly when the eager one is, so the pivot
    search reads it as it is.  A row that becomes the pivot, and every row
    below the last pivot at the end, is multiplied by p_(k-1) and divided by
    p_(s-1) once.  A row with a nonzero lead folds that scaling into its
    step: (p_k row - lead top) / p_(s-1).  Either way the result is the eager
    entry, a minor of the input by Sylvester's identity (Bareiss, Math. Comp.
    22, 1968) and so a polynomial: every division is exact, goes through
    `MPoly.exact_div`, and an inexact one raises.  A division by p_(-1) = 1,
    in a step-0 elimination or a catch-up of a row untouched since step 0, is
    left out.  Pivots, columns, sign and the final matrix are those of eager
    elimination."""
    zero = MPoly.zero(rows[0][0].vars)
    piv = [MPoly.one(zero.vars)]  # piv[s] = p_(s-1)
    done = [0] * len(rows)
    cols, sign = [], 1

    def over(x, s):
        """x / p_(s-1)."""
        return x.exact_div(piv[s]) if s else x

    def catch_up(i, k):
        s = done[i]
        if s < k:
            rows[i][:] = [over(x * piv[k], s) if x else x for x in rows[i]]
            done[i] = k

    for c in range(n_cols):
        r = len(cols)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        if found != r:
            rows[r], rows[found] = rows[found], rows[r]
            done[r], done[found] = done[found], done[r]
            sign = -sign
        catch_up(r, r)
        top = rows[r]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            lead = row[c]
            if not lead:
                continue
            s = done[i]
            for j in range(c + 1, len(row)):
                if row[j] or top[j]:
                    row[j] = over(top[c] * row[j] - lead * top[j], s)
            row[c] = zero
            done[i] = r + 1
        piv.append(top[c])
        cols.append(c)
    for i in range(len(cols), len(rows)):
        catch_up(i, len(cols))
    return cols, sign


class RationalFunc(_Value):
    """Unreduced ratio of two MPoly values; equality via cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly = None):
        if den is None:
            den = MPoly.one(num.vars)
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def const(cls, vars, v):
        return cls(MPoly.const(vars, v))

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RationalFunc):
            return other
        if isinstance(other, MPoly):
            return RationalFunc(other)
        if _is_scalar(other):
            return RationalFunc.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunc(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def scale_var(self, name, by, power=1):
        return RationalFunc(self.num.scale_var(name, by, power),
                            self.den.scale_var(name, by, power))

    def strip_content(self) -> "RationalFunc":
        """Divide numerator and denominator by their shared monomial content
        and normalize the denominator's lex-leading coefficient to 1.

        Cosmetic only (no GCD): the value is unchanged under cross-multiplied
        equality.
        """
        if self.num.is_zero():
            return RationalFunc(MPoly.zero(self.vars), MPoly.one(self.vars))
        nvar = len(self.vars)
        mins = [min(min(e[i] for e in p.terms) for p in (self.num, self.den))
                for i in range(nvar)]
        lead = self.den.terms[max(self.den.terms)]

        def shrink(p):
            return MPoly._make(p.vars, {tuple(map(sub, e, mins)):
                                        _div_coef(v, lead)
                                        for e, v in p.terms.items()})
        return RationalFunc(shrink(self.num), shrink(self.den))

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data):
        return cls(MPoly.from_json(data["num"]), MPoly.from_json(data["den"]))

    def to_text(self):
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __repr__(self):
        return f"RationalFunc({self.to_text()!r})"


def rational_equal(a, b) -> bool:
    """a.num*b.den == b.num*a.den, an MPoly read as over 1; no canonical form,
    no GCDs."""
    if not all(isinstance(x, (RationalFunc, MPoly)) for x in (a, b)):
        raise TypeError("rational_equal wants RationalFunc or MPoly arguments")
    a, b = (RationalFunc(x) if isinstance(x, MPoly) else x for x in (a, b))
    return a.num * b.den == b.num * a.den


def interpolate_in_N(points, degree: int) -> RationalFunc:
    """Lagrange interpolation in N over the rational functions of q.

    points: list of (node, value) with node and value QPoly in q; nodes are
    expected to be powers of q but any pairwise-distinct nodes work.  Uses the
    first degree+1 points; the result evaluates exactly to each used value.

    The result is unreduced, in the shape the sum of the Lagrange terms takes
    when they are added one at a time: den = prod_i d_i with d_i =
    prod_{j != i} (node_i - node_j), and num = sum_i value_i * L_i(N) *
    prod_{j != i} d_j with L_i(N) = prod_{j != i} (N - node_j).  The products
    of the other d_j come from prefix and suffix products, and each L_i from
    dividing prod_j (N - node_j), a list of coefficients in N, by N - node_i.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if len(points) < degree + 1:
        raise ValueError(f"need {degree + 1} points, got {len(points)}")
    use = points[: degree + 1]
    nodes = [n for n, _ in use]
    if len(set(nodes)) < len(nodes):  # QPoly hashes agree with its equality
        raise ValueError("duplicate interpolation nodes")
    m = len(nodes)
    d = []
    for i, x in enumerate(nodes):
        d_i = QPoly.one()
        for j, y in enumerate(nodes):
            if j != i:
                d_i = d_i * (x - y)
        d.append(d_i)
    # prefix and suffix products of the d_i, so that pre[i] * suf[i + 1] is
    # the product of every d_j with j != i
    pre, suf = [QPoly.one()], [QPoly.one()]
    for i in range(m):
        pre.append(pre[-1] * d[i])
        suf.append(suf[-1] * d[m - 1 - i])
    suf.reverse()
    # the coefficients in N, lowest first, of prod_j (N - node_j)
    zero = QPoly.zero()
    full = [QPoly.one()]
    for x in nodes:
        full = [a - x * b for a, b in zip([zero] + full, full + [zero])]
    num = [zero] * m
    for i, (x, value) in enumerate(use):
        c = pre[i] * suf[i + 1] * value
        # prod_{j != i} (N - node_j), by dividing the full product by N - x
        b = QPoly.one()
        for k in range(m - 1, -1, -1):
            num[k] = num[k] + c * b
            b = full[k] + x * b
    return RationalFunc(MPoly._make(NQ_VARS, {(k, e): v for k, p in enumerate(num)
                                              for e, v in p.c.items()}),
                        MPoly.from_qpoly(pre[m], NQ_VARS))


def eval_rational_at_qn(r: RationalFunc, n: int) -> QPoly:
    """Evaluate an (N, q) rational function at N = q**n; the result must be a
    polynomial in q (exact division)."""
    return r.num.eval_qpower("N", n).exact_div(r.den.eval_qpower("N", n))


def rational_agrees_at_qn(r: RationalFunc, n: int, value: QPoly) -> bool:
    """r(N=q^n) == value without performing a division."""
    return r.num.eval_qpower("N", n) == value * r.den.eval_qpower("N", n)


def trial_divide_numerator(r: RationalFunc, j_max: int):
    """Strip exact (N - q^j) factors, j = 0..j_max, from the numerator.

    The numerator is split once into its coefficients in N, polynomials in q.
    Dividing by N - q^j is synthetic division (Horner's rule; von zur Gathen &
    Gerhard, *Modern Computer Algebra*, ch. 2): from the top, each quotient
    coefficient is the next coefficient plus q^j times the one before, and the
    last such sum is the remainder, the numerator at N = q^j.  A root is
    stripped while that remainder is zero, and the numerator is rebuilt once
    at the end.

    Returns (sorted multiset of extracted j, leftover RationalFunc).
    """
    if r.num.is_zero():
        return [], r
    by_n = r.num.coeffs_in("N")
    coeffs = [by_n[k].to_qpoly() if k in by_n else QPoly.zero()
              for k in range(max(by_n) + 1)]
    roots = []
    for j in range(j_max + 1):
        # divide the root out fully before moving on, so roots stay sorted
        while len(coeffs) > 1:
            quo = [coeffs[-1]]
            for c in reversed(coeffs[:-1]):
                quo.append(c + quo[-1].shift(j))
            if not quo.pop().is_zero():
                break
            coeffs = quo[::-1]
            roots.append(j)
    num = MPoly._make(NQ_VARS, {(k, e): v for k, p in enumerate(coeffs)
                                for e, v in p.c.items()})
    return roots, RationalFunc(num, r.den)
