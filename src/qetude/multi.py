"""Sparse multivariate polynomials and unreduced rational functions.

An `MPoly` is a map exponent tuple -> rational coefficient, kept canonical by
the sparse-term kernel of `poly` (see its module docstring), which also does
its sums, products and powers and holds the display rules and the coefficient
codec it prints and reads with.  The ansatz, the coefficient identity, the
certificate solver and the Bareiss oracle stay integral almost throughout, so
their arithmetic runs on plain ints; the last two share one fraction-free
elimination, `_bareiss`.  It defers the rescaling of a row whose pivot-column
entry is zero, since those factors telescope, and brings the row up to date
with one exact division when it is next used (see its docstring).  Values are
immutable after construction (the term maps are read-only views).

Products and exact division run on packed exponent keys (Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): one integer per monomial, with a field per variable and
variable 0 most significant, so integer order is lex order and adding two keys
multiplies the monomials as long as no field overflows.  A product sizes each
field for deg_i(a) + deg_i(b), sums keys in one dict and unpacks each surviving
key once; a one-term operand skips the packing.  Division sizes the fields for
deg_i(dividend) plus one guard bit, tests divisibility with that bit, takes the
remainder's lead from a heap, and gives up once a quotient exponent leaves the
degree box an exact quotient must lie in (see `MPoly.try_exact_div`).  The
exponent tuples stay the public representation.

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

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, lshift, sub
from types import MappingProxyType

from .poly import (QPoly, _add_terms, _canonical, _coef_from_json, _coef_json,
                   _convolve, _div_coef, _merge, _power, _power_text, _signed_sum,
                   _sub_terms, _term)

# the fixed variable orders used across the package
NQ_VARS = ("N", "q")
CERT_VARS = ("q", "X", "N", "A")
HALF_VARS = ("Y", "P")


def _degrees(terms) -> list:
    """Largest exponent of each variable over a nonempty term map."""
    return list(map(max, zip(*terms)))


def _fields(bounds, guard: int):
    """Shift and mask of each variable's field in a packed exponent key:
    variable 0 most significant, each field wide enough for its bound plus
    `guard` bits on top."""
    shifts, masks, s = [], [], 0
    for b in reversed(bounds):
        w = b.bit_length() + guard
        shifts.append(s)
        masks.append((1 << w) - 1)
        s += w
    return shifts[::-1], masks[::-1]


def _pack(terms, shifts) -> dict:
    """A term map with each exponent tuple packed into one integer key."""
    return {sum(map(lshift, e, shifts)): v for e, v in terms.items()}


def _unpack(t: dict, shifts, masks) -> dict:
    """A canonical packed key -> coefficient map back to exponent-tuple
    terms, one exponent column at a time."""
    columns = [[(k >> s) & m for k in t] for s, m in zip(shifts, masks)]
    return dict(zip(zip(*columns), t.values()))


class MPoly:
    """Sparse polynomial in a fixed tuple of variables.

    terms: read-only map from exponent tuples to coefficients, each in the
    canonical form of `poly._coef`.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        pairs = [(tuple(exps), v) for exps, v in
                 (terms.items() if hasattr(terms, "items") else terms or ())]
        for exps, _ in pairs:
            if len(exps) != len(self.vars):
                raise ValueError("exponent tuple arity mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
        self.terms = MappingProxyType(_merge(pairs))

    @classmethod
    def _make(cls, vars: tuple, terms: dict) -> "MPoly":
        """Wrap a dict that is already canonical: exponent tuples of the
        right arity without negative entries, no zero values, integral values
        stored as ints.  The dict is owned by the new value from here on."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = MappingProxyType(terms)
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
        if isinstance(other, (int, Fraction)):
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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly._make(self.vars, _sub_terms(self.terms, other.terms))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) == 1 or len(b) == 1:
            # one term on either side: every exponent sum is distinct
            return MPoly._make(self.vars, _canonical(
                {tuple(map(add, e1, e2)): v1 * v2
                 for e1, v1 in a.items() for e2, v2 in b.items()}))
        if not a or not b:
            return MPoly._make(self.vars, {})
        # a field per variable wide enough for the largest exponent sum, so
        # adding two keys adds the exponent tuples without carries
        shifts, masks = _fields(list(map(add, _degrees(a), _degrees(b))), 0)
        t = _convolve(_pack(a, shifts), _pack(b, shifts))
        return MPoly._make(self.vars, _unpack(t, shifts, masks))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, MPoly.one(self.vars))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
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
        remainder is a dict of packed keys whose fields hold deg_i(self) plus
        a guard bit on top: (k | guards) - d keeps every guard bit set exactly
        when monomial d divides monomial k, and then the quotient key is that
        difference with the guards cleared.  The lead comes from a heap of
        negated keys; an entry goes stale when its term cancels and is skipped
        when popped.

        An exact quotient Q has deg_i(Q) = deg_i(self) - deg_i(other), and
        every quotient term the reduction produces is a term of Q.  So the
        division returns None up front when the divisor is of higher degree
        than self in some variable, and as soon as a quotient exponent leaves
        that degree box.  The remainder then never leaves deg_i(self), so no
        field overflows, and the quotient is the one the tuple-keyed
        reduction gives.
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
        top = _degrees(self.terms)
        qdeg = list(map(sub, top, _degrees(other.terms)))
        if min(qdeg) < 0:
            return None
        shifts, masks = _fields(top, 1)
        guards = sum(((m + 1) >> 1) << s for s, m in zip(shifts, masks))
        box = sum(map(lshift, qdeg, shifts)) | guards
        divisor = _pack(other.terms, shifts)
        dlead = max(divisor)
        dcoef = divisor.pop(dlead)
        lower = list(divisor.items())
        rem = _pack(self.terms, shifts)
        heap = [-k for k in rem]
        heapify(heap)
        quo = {}
        get = rem.get
        while heap:
            k = -heappop(heap)
            v = rem.pop(k, 0)
            if not v:
                continue
            qk = (k | guards) - dlead
            if qk & guards != guards:
                return None
            qk ^= guards
            if (box - qk) & guards != guards:
                return None
            f = _div_coef(v, dcoef)
            # the lead strictly decreases, so each quotient key is new
            quo[qk] = f
            for k2, v2 in lower:
                kk = qk + k2
                r = get(kk)
                if r is None:
                    rem[kk] = -f * v2
                    heappush(heap, -kk)
                else:
                    r -= f * v2
                    if r:
                        rem[kk] = r
                    else:
                        del rem[kk]
        return MPoly._make(self.vars, _unpack(quo, shifts, masks))

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
        t = [(e[:j] + (e[j] + power * e[i],) + e[j + 1:], v)
             for e, v in self.terms.items()]
        if i != j and power >= 0:
            # injective on exponents and nonnegative: the terms stay canonical
            return MPoly._make(self.vars, dict(t))
        # merges collided terms and rejects a negative exponent
        return MPoly(self.vars, t)

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
    `MPoly.exact_div`, and an inexact one raises.  Pivots, columns, sign and
    the final matrix are those of eager elimination."""
    zero = MPoly.zero(rows[0][0].vars)
    piv = [MPoly.one(zero.vars)]  # piv[s] = p_(s-1)
    done = [0] * len(rows)
    cols, sign = [], 1

    def catch_up(i, k):
        s = done[i]
        if s < k:
            rows[i][:] = [(x * piv[k]).exact_div(piv[s]) if x else x for x in rows[i]]
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
            prev = piv[done[i]]
            for j in range(c + 1, len(row)):
                if row[j] or top[j]:
                    row[j] = (top[c] * row[j] - lead * top[j]).exact_div(prev)
            row[c] = zero
            done[i] = r + 1
        piv.append(top[c])
        cols.append(c)
    for i in range(len(cols), len(rows)):
        catch_up(i, len(cols))
    return cols, sign


class RationalFunc:
    """Unreduced ratio of two MPoly values; equality via cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly = None):
        if den is None:
            den = MPoly.one(num.vars)
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

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
        if isinstance(other, (int, Fraction)):
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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def equals(self, other) -> bool:
        other = self._coerce(other)
        return (self.num * other.den - other.num * self.den).is_zero()

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
    """a.num*b.den - b.num*a.den == 0; no canonical form, no GCDs."""
    if not isinstance(a, RationalFunc):
        a = RationalFunc(a) if isinstance(a, MPoly) else None
    if not isinstance(b, RationalFunc):
        b = RationalFunc(b) if isinstance(b, MPoly) else None
    if a is None or b is None:
        raise TypeError("rational_equal wants RationalFunc or MPoly arguments")
    return a.equals(b)


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
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if nodes[i] == nodes[j]:
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
    num = r.num.eval_qpower("N", n)
    den = r.den.eval_qpower("N", n)
    return num.exact_div(den)


def rational_agrees_at_qn(r: RationalFunc, n: int, value: QPoly) -> bool:
    """r(N=q^n) == value without performing a division."""
    num = r.num.eval_qpower("N", n)
    den = r.den.eval_qpower("N", n)
    return num == value * den


def trial_divide_numerator(r: RationalFunc, j_max: int):
    """Strip exact (N - q^j) factors, j = 0..j_max, from the numerator.

    N - q^j is monic in N, so it divides the numerator exactly when the
    numerator vanishes at N = q^j; only then is the division, which stays the
    witness, made, and an inexact one raises.

    Returns (sorted multiset of extracted j, leftover RationalFunc).
    """
    N = MPoly.var(NQ_VARS, "N")
    q = MPoly.var(NQ_VARS, "q")
    num = r.num
    if num.is_zero():
        return [], r
    roots = []
    for j in range(j_max + 1):
        # divide the root out fully before moving on, so roots stay sorted
        while num.eval_qpower("N", j).is_zero():
            num = num.exact_div(N - q**j)
            roots.append(j)
    return roots, RationalFunc(num, r.den)
