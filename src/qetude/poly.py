"""Sparse exact polynomials in q, and polynomials in X with such coefficients.

Coefficients are exact rationals, stored as `int` unless a denominator
appears, and then as a `fractions.Fraction` whose denominator exceeds 1.  The
determinant, the closed form and the limit series have integer coefficients
throughout, so their arithmetic runs on plain ints, and `fractions` is
imported only at the three places that build a Fraction: an inexact
`_div_coef`, and a JSON pair (`_coef_from_json`) or a parsed number (`_parse`)
with a denominator.  A process that meets no denominator never loads it, nor
`decimal` and `numbers` behind it.  All values are immutable after
construction: every value type derives from `_Value`, which refuses to set or
delete an attribute, and the coefficient maps are read-only views; every
operation returns a fresh object.

Every sparse type of the package (`QPoly`, `XQPoly` and `multi.MPoly`) is a
map key -> value kept canonical by one rule: no zero values, and an integral
rational stored as an `int`.  The private kernel below is the only code that
applies the rule: `_is_scalar` tells a rational scalar (an int or a
Fraction) from anything else without importing `fractions`, since a Fraction
exists only once that module is loaded; `_coef` checks and converts one
outside coefficient, `_exponent` one outside exponent (an int, not negative),
and `_canonical` a whole dict; `_merge` builds a map from outside pairs;
`_add_terms` adds maps (every type subtracts by adding the negation) and
`_convolve` multiplies int-keyed ones; `_power` raises to a power;
`_div_coef` divides one coefficient, in ints when the quotient is exact.  `_power_text`, `_term` and
`_signed_sum` are the display rules (`q^2`, `3*q^2`, `a - b + c`);
`_sum_text` applies all three to a map in q in one pass over its terms, for
`QPoly.to_text` and the rows of `XQPoly.to_text`.  `_parse` is the one
reader of that text, evaluated in the ring of the type that reads it.
`_coef_json` and `_coef_from_json` write and read the JSON pair of one
coefficient; `XQPoly.dumps` writes its JSON text directly, so `json` is
imported only by `XQPoly.loads`.  Values may be rationals or `QPoly`s (the
coefficients of an `XQPoly`).  The classes keep only what differs between
them: `MPoly`'s key arity, its product on exponent tuples and its exact
division, and which terms they print.

Keys are ints, so two int-valued maps multiply as one big int (Kronecker
substitution; von zur Gathen & Gerhard, *Modern Computer Algebra*, 3rd ed.,
2013, section 8.4).  `_packed_convolve` writes each map to n = max(a) - min(a)
+ max(b) - min(b) + 1 slots of w bytes, positive and negative values apart,
multiplies once, and reads the slots back as signed digits with `_read_slots`,
as `lehmer.det_recurrence` does.  Coefficients of at most `top` bits take slots
of `_slot_width(top)` bytes: top is bitlen(max|a| * max|b| * min(len a, len b))
here, and n for Q_n (see `lehmer.det_recurrence`).  0x80.. added per slot, and
those bits flipped, make the slots two's complement, which `memoryview.cast`
reads for w <= 8.  The product applies from 100 pairs of terms on while n <=
len a * len b, where it measured faster than the loop over pairs; fewer pairs,
sparser keys, Fraction or `QPoly` values and products whose coefficients may
need more than 63 bits take the loop.
"""

from __future__ import annotations

import re
import sys
from itertools import compress
from types import MappingProxyType


class InternalConsistencyError(RuntimeError):
    """An invariant that should hold by construction was violated."""


def _is_scalar(x) -> bool:
    """Whether x is a rational scalar: an int (a bool too) or a Fraction.
    It imports nothing: a Fraction exists only once `fractions` is loaded."""
    if isinstance(x, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _coef(x):
    """Canonical coefficient: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if not _is_scalar(x):
        raise TypeError(f"not a rational coefficient: {x!r}")
    return x.numerator if x.denominator == 1 else x


def _exponent(e):
    """An exponent from outside the kernel: an int (not a bool), not negative."""
    if type(e) is not int:
        raise TypeError(f"not an int exponent: {e!r}")
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    return e


def _canonical(c: dict) -> dict:
    """Drop the zero values of a key -> value dict and store integral
    Fractions as ints; other values, such as a `QPoly`, which has no
    denominator, are kept as they are."""
    return {k: v.numerator if type(v) is not int and getattr(v, "denominator", 0) == 1
            else v for k, v in c.items() if v}


def _merge(pairs, coef=_coef) -> dict:
    """Sum (key, value) pairs into a canonical dict; `coef` checks and
    converts each value, which comes from outside the kernel."""
    c = {}
    for k, v in pairs:
        v = coef(v)
        c[k] = c[k] + v if k in c else v
    return _canonical(c)


def _add_terms(a, b) -> dict:
    """a + b for two canonical maps, as a canonical dict."""
    c = a.copy()
    for k, v in b.items():
        if k in c:
            v = c[k] + v
            if not v:
                del c[k]
                continue
            if type(v) is not int and getattr(v, "denominator", 0) == 1:
                v = v.numerator
        c[k] = v
    return c


def _convolve(a, b) -> dict:
    """The product of two maps whose keys add under multiplication, as a
    canonical dict: `_packed_convolve` where it applies, else a loop over
    pairs of terms."""
    if len(a) * len(b) >= 100:
        c = _packed_convolve(a, b)
        if c is not None:
            return c
    c = {}
    get = c.get
    right = list(b.items())
    for k1, v1 in a.items():
        for k2, v2 in right:
            k = k1 + k2
            c[k] = get(k, 0) + v1 * v2
    return _canonical(c)


# memoryview format of a signed slot of w = 1, 2, 4 or 8 bytes
_SLOT = {1: "b", 2: "h", 4: "i", 8: "q"}


def _packed_convolve(a, b):
    """The product of two maps by one big-int product (Kronecker
    substitution), or None where the module docstring's rule leaves it to
    the loop over pairs of terms."""
    lo_a, lo_b = min(a), min(b)
    n = max(a) - lo_a + max(b) - lo_b + 1
    if n > len(a) * len(b) or set(map(type, a.values())) | set(
            map(type, b.values())) != {int}:
        return None
    top = (max(map(abs, a.values())) * max(map(abs, b.values()))
           * min(len(a), len(b))).bit_length()
    if top > 63:
        return None
    w = _slot_width(top)
    return _read_slots(_pack_slots(a, lo_a, n, w) * _pack_slots(b, lo_b, n, w),
                       w, lo_a + lo_b)


def _slot_width(top: int) -> int:
    """The least power of two w with 8w - 1 >= top: slots of w bytes hold
    any signed digit of at most top bits."""
    return 1 << (top // 8).bit_length()


def _read_slots(x: int, w: int, lo: int = 0) -> dict:
    """x's nonzero digits in [-2**(8w-1), 2**(8w-1)), base 256**w, as lo + i -> d_i."""
    n = (x.bit_length() + 1) // (8 * w) + 1  # slots enough for any such x
    off = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    x = ((x + off) ^ off).to_bytes(n * w, "little")
    x = memoryview(x).cast(_SLOT[w]).tolist() if w in _SLOT else [
        int.from_bytes(x[i:i + w], "little", signed=True) for i in range(0, n * w, w)]
    return dict(compress(enumerate(x, lo), x))


def _pack_slots(m, lo: int, n: int, w: int) -> int:
    """The int sum of v * 256**(w * (k - lo)) over the terms k -> v of an
    int-valued map, written to n slots of w bytes, positive and negative
    values apart."""
    pos, neg = bytearray(n * w), bytearray(n * w)
    unsigned = _SLOT[w].upper()
    p, q = memoryview(pos).cast(unsigned), memoryview(neg).cast(unsigned)
    for k, v in m.items():
        if v > 0:
            p[k - lo] = v
        else:
            q[k - lo] = -v
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _power(x, n: int, one):
    """x**n by repeated squaring; `one` is the unit of x's ring."""
    if n < 0:
        raise ValueError("negative power")
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


def _div_coef(v, d):
    """v / d, as an exact int quotient when d divides v, else through a
    Fraction."""
    if type(v) is int and type(d) is int and not v % d:
        return v // d
    from fractions import Fraction

    return _coef(Fraction(v) / d)


def _power_text(name: str, x: int) -> str:
    """`q^x`, written `q` for x = 1 and left out for x = 0."""
    return "" if not x else name if x == 1 else f"{name}^{x}"


def _term(coef, mono: str) -> str:
    """An absolute coefficient, or the text of one, joined to a monomial by
    `*`; a 1 before a monomial is left out."""
    coef = str(coef)
    return coef if not mono else mono if coef == "1" else f"{coef}*{mono}"


def _signed_sum(terms, compact: bool = False) -> str:
    """(negative, text) pairs as `a - b + c`, or `a-b+c` if compact; 0 if empty."""
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    s = "".join([minus + t if neg else plus + t for neg, t in terms])
    return "-" + s[len(minus):] if s.startswith(minus) else s[len(plus):] or "0"


def _sum_text(c, var: str, compact: bool = False, signed: bool = True) -> str:
    """What `_signed_sum` writes for the terms (v < 0 and signed,
    `_term(abs(v), _power_text(var, e))`) of a map e -> v in ascending e,
    written in one pass with no call per term."""
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    out = []
    for e, v in sorted(c.items()):
        sign = minus if v < 0 and signed else plus
        v = str(abs(v))
        mono = "" if not e else var if e == 1 else f"{var}^{e}"
        out.append(sign + v if not mono else sign + mono if v == "1" else f"{sign}{v}*{mono}")
    s = "".join(out)
    return "-" + s[len(minus):] if s.startswith(minus) else s[len(plus):] or "0"


def _coef_json(v) -> list:
    """A coefficient's JSON pair [numerator, denominator], as strings."""
    return [str(v.numerator), str(v.denominator)]


def _coef_from_json(n, d):
    """The coefficient whose JSON pair `_coef_json` wrote as n, d."""
    if d == "1":
        return int(n)
    from fractions import Fraction

    return Fraction(int(n), int(d))


def _parse(s: str, names: dict, one):
    """The value of text in the grammar `to_text` writes: terms joined by
    + or -, the first of which may carry a sign, each term `*`-joined
    factors, each factor a rational, a name or a parenthesized sum with an
    optional `^e`.  names maps each variable name to its value, and one is
    the unit of their ring, whose +, -, * and `_power` evaluate the text.
    Blank text is zero; other text outside the grammar raises ValueError
    naming the token where it leaves it."""
    # a rational, a name or one other character, popped from the end
    toks = re.findall(r"\d+(?:/\d+)?|\w+|\S", s)[::-1]
    zero = one * 0

    def take():
        return toks.pop() if toks else "end of text"

    def bad(tok):
        return ValueError(f"cannot parse polynomial {s!r} at {tok!r}")

    def total():
        x, op = zero, take() if toks and toks[-1] in ("+", "-") else "+"
        while True:
            y = product(take())
            x = x + y if op == "+" else x - y
            if not toks or toks[-1] not in ("+", "-"):
                return x
            op = take()

    def product(tok):
        x = factor(tok)
        while toks and toks[-1] == "*":
            toks.pop()
            x = x * factor(take())
        return x

    def factor(tok):
        if tok == "(":
            x, tok = total(), take()
            if tok != ")":
                raise bad(tok)
        elif tok in names:
            x = names[tok]
        elif not tok[0].isdecimal():
            raise bad(tok)
        elif "/" in tok:
            from fractions import Fraction

            x = one * Fraction(tok)
        else:
            x = one * int(tok)
        if toks and toks[-1] == "^":
            toks.pop()
            tok = take()
            if not tok.isdecimal():
                raise bad(tok)
            x = _power(x, int(tok), one)
        return x

    if not toks:
        return zero
    try:
        x = total()
    except RecursionError:  # one level per parenthesis
        raise bad("(") from None
    if toks:
        raise bad(toks[-1])
    return x


class _Value:
    """Base of the value types: attributes are set once, when built."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    __delattr__ = __setattr__


class QPoly(_Value):
    """Sparse polynomial in q over the rationals, keyed exponent ->
    coefficient, each coefficient in the canonical form of `_coef`.

    A series coefficient that is a polynomial in X is stored the same way;
    only its printer is told to write X (`to_text(var="X")`).
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        pairs = coeffs.items() if hasattr(coeffs, "items") else coeffs or ()
        object.__setattr__(self, "c", MappingProxyType(
            _merge((_exponent(e), v) for e, v in pairs)))

    @classmethod
    def _make(cls, c: dict) -> "QPoly":
        """Wrap a dict that is already canonical: nonnegative exponents, no
        zero entries, integral values stored as ints.  The dict is owned by
        the new value from here on."""
        p = object.__new__(cls)
        object.__setattr__(p, "c", MappingProxyType(c))
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def term(cls, exp: int, coeff=1):
        return cls({exp: coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.c) if self.c else -1

    def low_degree(self) -> int:
        """Smallest exponent with a nonzero coefficient; -1 for zero."""
        return min(self.c) if self.c else -1

    def coeff(self, e: int):
        return self.c.get(e, 0)

    def constant(self):
        return self.coeff(0)

    def terms(self):
        """Terms as (exponent, coefficient) in ascending exponent order."""
        return sorted(self.c.items())

    def is_constant(self) -> bool:
        return self.degree() <= 0

    def sign_uniform(self):
        """+1/-1 if all coefficients share that sign, else None (0 for zero)."""
        if not self.c:
            return 0
        values = self.c.values()
        return 1 if min(values) > 0 else -1 if max(values) < 0 else None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QPoly):
            return other
        if _is_scalar(other):
            return QPoly({0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QPoly._make(_add_terms(self.c, other.c))

    __radd__ = __add__

    def __neg__(self):
        return QPoly._make({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QPoly._make(_convolve(self.c, other.c))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, QPoly.one())

    def shift(self, k: int):
        """Multiply by q**k."""
        if k == 0:
            return self
        if k < 0:
            return self.unshift(-k)
        return QPoly._make({e + k: v for e, v in self.c.items()})

    def unshift(self, k: int):
        """Divide by q**k; every exponent must be >= k."""
        if any(e < k for e in self.c):
            raise ValueError(f"not divisible by q^{k}")
        return QPoly._make({e - k: v for e, v in self.c.items()})

    def divmod(self, other: "QPoly"):
        """Long division; returns (quotient, remainder).

        A quotient coefficient is an exact integer quotient when the divisor's
        leading coefficient divides the current leading term, and a Fraction
        otherwise; a divisor with leading coefficient +-1 keeps integer
        polynomials integral.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = self.c.copy()
        quo = {}
        dlead = other.degree()
        dcoef = other.c[dlead]
        lower = [(e2 - dlead, v2) for e2, v2 in other.c.items() if e2 != dlead]
        get = rem.get
        for e in range(self.degree(), dlead - 1, -1):
            v = rem.pop(e, 0)
            if not v:
                continue
            f = _div_coef(v, dcoef)
            quo[e - dlead] = f
            for d, v2 in lower:
                k = e + d
                rem[k] = get(k, 0) - f * v2
        return QPoly._make(quo), QPoly._make(_canonical(rem))

    def exact_div(self, other: "QPoly"):
        """Division that must be remainder-free."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar
        if self.is_constant():
            return hash(self.constant())
        return hash(tuple(sorted(self.c.items())))

    def __bool__(self):
        return bool(self.c)

    # -- serialization -----------------------------------------------------

    def to_text(self, var: str = "q") -> str:
        """Canonical text, ascending exponents: `1 - q - q^2 + q^4 + q^5 - q^6`;
        var is the name printed for the variable."""
        return _sum_text(self.c, var)

    @classmethod
    def from_text(cls, s: str, var: str = "q") -> "QPoly":
        """Parse `to_text` output; var is the variable name the text uses."""
        return _parse(s, {var: cls.term(1)}, cls.one())

    def to_json(self):
        """JSON form: [[exp, "num", "den"], ...] ascending exponents."""
        return [[e] + _coef_json(v) for e, v in self.terms()]

    @classmethod
    def from_json(cls, data) -> "QPoly":
        return cls([(e, _coef_from_json(n, d)) for e, n, d in data])

    def __repr__(self):
        return f"QPoly({self.to_text()!r})"


class XQPoly(_Value):
    """Polynomial in X whose coefficients are QPoly in q: map X-degree -> QPoly."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        pairs = coeffs.items() if hasattr(coeffs, "items") else coeffs or ()
        object.__setattr__(self, "coeffs", MappingProxyType(_merge(
            ((_exponent(a), p) for a, p in pairs),
            lambda p: p if isinstance(p, QPoly) else QPoly({0: p}))))

    @classmethod
    def one(cls):
        return cls({0: QPoly.one()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, a: int) -> QPoly:
        c = self.coeffs.get(a)
        return QPoly.zero() if c is None else c

    def __add__(self, other):
        if not isinstance(other, XQPoly):
            return NotImplemented
        return XQPoly(_add_terms(self.coeffs, other.coeffs))

    def __neg__(self):
        return XQPoly({a: -p for a, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if _is_scalar(other) or isinstance(other, QPoly):
            return XQPoly({a: p * other for a, p in self.coeffs.items()})
        if not isinstance(other, XQPoly):
            return NotImplemented
        return XQPoly(_convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def shift_x(self, k: int):
        """Multiply by X**k."""
        return XQPoly({a + k: p for a, p in self.coeffs.items()})

    def shift_q(self, k: int):
        """Multiply by q**k."""
        return XQPoly({a: p.shift(k) for a, p in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, XQPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted((a, p) for a, p in self.coeffs.items())))

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical display, e.g. `1 - (1+q+q^2)*X + q^2*X^2`: a coefficient
        of more than one term is parenthesized, and a sign that all its terms
        share is moved outside."""
        terms = []
        for a, p in sorted(self.coeffs.items()):
            neg = p.sign_uniform() == -1
            # the sign moved outside: every inner term is printed as positive
            inner = _sum_text(p.c, "q", True, not neg)
            terms.append((neg, _term(inner if len(p.c) == 1 else f"({inner})",
                                     _power_text("X", a))))
        return _signed_sum(terms)

    @classmethod
    def from_text(cls, s: str) -> "XQPoly":
        """Parse `to_text` output."""
        return _parse(s, {"q": cls({0: QPoly.term(1)}), "X": cls({1: 1})}, cls.one())

    def to_json(self):
        """JSON form: {"a": QPoly-JSON, ...} keyed by X-degree."""
        return {str(a): self.coeffs[a].to_json() for a in sorted(self.coeffs)}

    @classmethod
    def from_json(cls, data) -> "XQPoly":
        return cls({int(a): QPoly.from_json(p) for a, p in data.items()})

    def dumps(self) -> str:
        """`json.dumps(self.to_json(), sort_keys=True)`, written directly:
        X-degrees in string order ("10" before "2"), `, ` and `: ` between
        items."""
        rows = []
        for a in sorted(self.coeffs, key=str):
            pairs = ", ".join([
                f'[{e}, "{v}", "1"]' if type(v) is int else
                f'[{e}, "{v.numerator}", "{v.denominator}"]'
                for e, v in sorted(self.coeffs[a].c.items())])
            rows.append(f'"{a}": [{pairs}]')
        return "{" + ", ".join(rows) + "}"

    @classmethod
    def loads(cls, s: str) -> "XQPoly":
        import json

        return cls.from_json(json.loads(s))

    def __repr__(self):
        return f"XQPoly({self.to_text()!r})"


def qpochhammer(a: int) -> QPoly:
    """(1-q)(1-q^2)...(1-q^a); the empty product 1 for a=0."""
    if a < 0:
        raise ValueError("qpochhammer needs a >= 0")
    out = QPoly.one()
    for i in range(1, a + 1):
        out = out * QPoly({0: 1, i: -1})
    return out
