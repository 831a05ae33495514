"""Sparse exact polynomials in q, and polynomials in X with such coefficients.

Coefficients are exact rationals, stored as `int` unless a denominator
appears, and then as a `fractions.Fraction` whose denominator exceeds 1.  The
determinant, the closed form and the limit series have integer coefficients
throughout, so their arithmetic runs on plain ints.  All values are immutable
after construction (the coefficient maps are read-only views); every operation
returns a fresh object.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from types import MappingProxyType


class InternalConsistencyError(RuntimeError):
    """An invariant that should hold by construction was violated."""


def _coef(x):
    """Canonical coefficient: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not a rational coefficient: {x!r}")


def _canonical(c: dict) -> dict:
    """Drop the zero entries of an exponent -> coefficient dict and store
    integral values as ints."""
    return {e: v if type(v) is int else _coef(v) for e, v in c.items() if v}


class QPoly:
    """Sparse polynomial in q over the rationals, keyed exponent ->
    coefficient, each coefficient in the canonical form of `_coef`.

    A series coefficient that is a polynomial in X is stored the same way;
    only its printer is told to write X (`to_text(var="X")`).
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in (coeffs.items() if hasattr(coeffs, "items") else coeffs):
                if e < 0:
                    raise ValueError(f"negative exponent {e}")
                v = _coef(v)
                if v:
                    v = _coef(c.get(e, 0) + v)
                    if v:
                        c[e] = v
                    else:
                        del c[e]
        self.c = MappingProxyType(c)

    @classmethod
    def _make(cls, c: dict) -> "QPoly":
        """Wrap a dict that is already canonical: nonnegative exponents, no
        zero entries, integral values stored as ints.  The dict is owned by
        the new value from here on."""
        p = object.__new__(cls)
        p.c = MappingProxyType(c)
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
        return [(e, self.c[e]) for e in sorted(self.c)]

    def is_constant(self) -> bool:
        return self.degree() <= 0

    def sign_uniform(self):
        """+1/-1 if all coefficients share that sign, else None (0 for zero)."""
        if not self.c:
            return 0
        signs = {1 if v > 0 else -1 for v in self.c.values()}
        return signs.pop() if len(signs) == 1 else None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly({0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c = self.c.copy()
        for e, v in other.c.items():
            if e in c:
                v = c[e] + v
                if not v:
                    del c[e]
                    continue
                if type(v) is not int:
                    v = _coef(v)
            c[e] = v
        return QPoly._make(c)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._make({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c = self.c.copy()
        for e, v in other.c.items():
            if e in c:
                v = c[e] - v
                if not v:
                    del c[e]
                    continue
                if type(v) is not int:
                    v = _coef(v)
            else:
                v = -v
            c[e] = v
        return QPoly._make(c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        c = {}
        get = c.get
        right = list(other.c.items())
        for e1, v1 in self.c.items():
            for e2, v2 in right:
                e = e1 + e2
                c[e] = get(e, 0) + v1 * v2
        return QPoly._make(_canonical(c))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = QPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

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
            if type(v) is int and type(dcoef) is int and not v % dcoef:
                f = v // dcoef
            else:
                f = _coef(Fraction(v) / dcoef)
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

    def is_integral(self) -> bool:
        return all(type(v) is int for v in self.c.values())

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly({0: other})
        if not isinstance(other, QPoly):
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

    def to_text(self, compact: bool = False, var: str = "q") -> str:
        """Canonical text, ascending exponents: `1 - q - q^2 + q^4 + q^5 - q^6`.

        compact=True drops the spaces around signs (used inside X-coefficient
        parentheses); var is the name printed for the variable.
        """
        if not self.c:
            return "0"
        parts = []
        for i, (e, v) in enumerate(self.terms()):
            sign = "-" if v < 0 else "+"
            a = abs(v)
            if e == 0:
                body = str(a)
            else:
                pw = var if e == 1 else f"{var}^{e}"
                body = pw if a == 1 else f"{a}*{pw}"
            if i == 0:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(f"{sign}{body}" if compact else f" {sign} {body}")
        return "".join(parts)

    @classmethod
    def from_text(cls, s: str, var: str = "q") -> "QPoly":
        """Parse `to_text` output; var is the variable name the text uses."""
        s = s.strip().replace(" ", "")
        if s in ("", "0"):
            return cls.zero()
        token = re.compile(
            r"([+-]?)"                       # sign
            r"(?:(\d+(?:/\d+)?)\*?)?"        # optional coefficient
            r"(?:([A-Za-z]\w*)(?:\^(\d+))?)?"  # optional variable^exp
        )
        pos = 0
        terms = []
        while pos < len(s):
            m = token.match(s, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse polynomial at ...{s[pos:]!r}")
            sign, coef, name, exp = m.groups()
            if coef is None and name is None:
                raise ValueError(f"cannot parse polynomial at ...{s[pos:]!r}")
            v = Fraction(coef) if coef else Fraction(1)
            if sign == "-":
                v = -v
            if name is None:
                e = 0
            else:
                if name != var:
                    raise ValueError(f"unexpected variable {name!r}, expected {var!r}")
                e = int(exp) if exp else 1
            terms.append((e, v))
            pos = m.end()
        return cls(terms)

    def to_json(self):
        """JSON form: [[exp, "num", "den"], ...] ascending exponents."""
        return [[e, str(v.numerator), str(v.denominator)] for e, v in self.terms()]

    @classmethod
    def from_json(cls, data) -> "QPoly":
        return cls([(int(e), int(n) if d == "1" else Fraction(int(n), int(d)))
                    for e, n, d in data])

    def __repr__(self):
        return f"QPoly({self.to_text()!r})"

    __str__ = __repr__


class XQPoly:
    """Polynomial in X whose coefficients are QPoly in q: map X-degree -> QPoly."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for a, p in (coeffs.items() if hasattr(coeffs, "items") else coeffs):
                if not isinstance(p, QPoly):
                    p = QPoly({0: p})
                if not p.is_zero():
                    if a in c:
                        p = c[a] + p
                    if p.is_zero():
                        del c[a]
                    else:
                        c[a] = p
        self.coeffs = MappingProxyType(c)

    @classmethod
    def one(cls):
        return cls({0: QPoly.one()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def x_degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def coeff(self, a: int) -> QPoly:
        return self.coeffs.get(a, QPoly.zero())

    def __add__(self, other):
        if not isinstance(other, XQPoly):
            return NotImplemented
        c = self.coeffs.copy()
        for a, p in other.coeffs.items():
            c[a] = c[a] + p if a in c else p
        return XQPoly(c)

    def __neg__(self):
        return XQPoly({a: -p for a, p in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, XQPoly):
            return NotImplemented
        c = self.coeffs.copy()
        for a, p in other.coeffs.items():
            c[a] = c[a] - p if a in c else -p
        return XQPoly(c)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            return XQPoly({a: p * other for a, p in self.coeffs.items()})
        if not isinstance(other, XQPoly):
            return NotImplemented
        c = {}
        for a1, p1 in self.coeffs.items():
            for a2, p2 in other.coeffs.items():
                a = a1 + a2
                c[a] = c[a] + p1 * p2 if a in c else p1 * p2
        return XQPoly(c)

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

    def is_integral(self) -> bool:
        return all(p.is_integral() for p in self.coeffs.values())

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical display, e.g. `1 - (1+q+q^2)*X + q^2*X^2`."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, a in enumerate(sorted(self.coeffs)):
            p = self.coeffs[a]
            xpart = "" if a == 0 else ("X" if a == 1 else f"X^{a}")
            s = p.sign_uniform()
            if len(p.c) == 1:
                (e, v), = p.c.items()
                sign = "-" if v < 0 else "+"
                av = abs(v)
                pieces = []
                if av != 1 or e == 0 and not xpart:
                    pieces.append(str(av))
                if e > 0:
                    pieces.append("q" if e == 1 else f"q^{e}")
                if xpart:
                    pieces.append(xpart)
                if not pieces:
                    pieces.append("1")
                body = "*".join(pieces)
            elif s in (1, -1):
                sign = "-" if s < 0 else "+"
                inner = (p if s > 0 else -p).to_text(compact=True)
                body = f"({inner})*{xpart}" if xpart else f"({inner})"
            else:
                sign = "+"
                body = f"({p.to_text(compact=True)})*{xpart}" if xpart else f"({p.to_text(compact=True)})"
            if i == 0:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    @classmethod
    def from_text(cls, s: str) -> "XQPoly":
        s = s.strip()
        if s in ("", "0"):
            return cls()
        # split into top-level signed chunks (no nesting beyond one paren level)
        chunks = []
        depth = 0
        cur = ""
        for ch in s:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch in "+-" and depth == 0 and cur.strip():
                chunks.append(cur)
                cur = ch
            else:
                cur += ch
        if cur.strip():
            chunks.append(cur)
        acc = {}
        for chunk in chunks:
            chunk = chunk.replace(" ", "")
            sign = 1
            while chunk and chunk[0] in "+-":
                if chunk[0] == "-":
                    sign = -sign
                chunk = chunk[1:]
            m = re.search(r"\*?X(?:\^(\d+))?$", chunk)
            if m:
                a = int(m.group(1)) if m.group(1) else 1
                chunk = chunk[: m.start()]
            else:
                a = 0
            if chunk.startswith("(") and chunk.endswith(")"):
                chunk = chunk[1:-1]
            p = QPoly.from_text(chunk) if chunk else QPoly.one()
            if sign < 0:
                p = -p
            acc[a] = acc[a] + p if a in acc else p
        return cls(acc)

    def to_json(self):
        """JSON form: {"a": QPoly-JSON, ...} keyed by X-degree."""
        return {str(a): self.coeffs[a].to_json() for a in sorted(self.coeffs)}

    @classmethod
    def from_json(cls, data) -> "XQPoly":
        return cls({int(a): QPoly.from_json(p) for a, p in data.items()})

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, s: str) -> "XQPoly":
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
