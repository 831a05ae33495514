"""Truncated formal power series in q.

A QSeries of order K stores the exact coefficients of q^0..q^K inclusive.
Scalar entries are ints unless a denominator appears, and then Fractions
(the canonical form of `poly._coef`); a series whose coefficients are
polynomials in X stores each as a QPoly, whose variable then stands for X.
The coefficients are a tuple, fixed when the series is built, so its hash
never changes.  Binary operations truncate to the smaller order, so precision
never silently inflates.
"""

from __future__ import annotations

from .poly import QPoly, _Value, _coef, _convolve, _div_coef, _is_scalar


class QSeries(_Value):
    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = tuple(c if isinstance(c, QPoly) else _coef(c) for c in coeffs or ())
        if len(cs) > order + 1:
            raise ValueError("too many coefficients for the stated order")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs + (0,) * (order + 1 - len(cs)))

    @classmethod
    def one(cls, order: int):
        return cls(order, [1])

    def coeff(self, i: int):
        if i > self.order:
            raise IndexError(f"order {self.order} series has no q^{i} coefficient")
        return self.coeffs[i]

    def truncate(self, order: int) -> "QSeries":
        if order >= self.order:
            return self
        return QSeries(order, self.coeffs[: order + 1])

    def _pair(self, other):
        if _is_scalar(other) or isinstance(other, QPoly):
            other = QSeries(self.order, [other])
        if not isinstance(other, QSeries):
            return None, None
        k = min(self.order, other.order)
        return self.truncate(k), other.truncate(k)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return QSeries(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        c = _convolve(*({i: x for i, x in enumerate(s.coeffs) if x} for s in (a, b)))
        return QSeries(a.order, [c.get(i, 0) for i in range(a.order + 1)])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        # a QPoly entry compares equal to the scalar it is constant at
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def scalar_list(self):
        """Scalar coefficients (ints or Fractions); raises if any entry
        involves X."""
        out = []
        for c in self.coeffs:
            if isinstance(c, QPoly):
                if not c.is_constant():
                    raise ValueError("series coefficient is not scalar")
                c = c.constant()
            out.append(c)
        return out

    def __repr__(self):
        return f"QSeries(K={self.order}, {[str(c) for c in self.coeffs]})"


def series_invert(s: QSeries) -> QSeries:
    """Multiplicative inverse mod q^(K+1), by long division.

    Requires a nonzero rational constant coefficient.
    """
    c0 = s.coeffs[0]
    if isinstance(c0, QPoly):
        if not c0.is_constant():
            raise ValueError("non-invertible series: constant term involves X")
        c0 = c0.constant()
    if not c0:
        raise ValueError("non-invertible series")
    inv0 = _div_coef(1, c0)
    tail = [(j, c) for j, c in enumerate(s.scalar_list()) if j and c]
    out = [inv0]
    for i in range(1, s.order + 1):
        acc = 0
        for j, c in tail:
            if j > i:
                break
            acc += c * out[i - j]
        out.append(_coef(-acc * inv0))
    return QSeries(s.order, out)


def reciprocal_of_parts(parts, order: int) -> list:
    """Coefficients of q^0..q^order of the product over i in parts of
    1/(1-q^i): the number of partitions of each k into the given parts.

    Each factor 1 + q^i + q^(2i) + ... is applied in place as a stride-i
    running sum, out[k] += out[k - i] for k = i..order, so the expansion
    stays in ints and never forms a series product.
    """
    out = [1] + [0] * order
    for i in parts:
        for k in range(i, order + 1):
            out[k] += out[k - i]
    return out


def pochhammer_reciprocal(a: int, order: int) -> QSeries:
    """Truncated 1/((1-q)(1-q^2)...(1-q^a)), each factor 1/(1-q^i) expanded
    as a stride-i running sum (see reciprocal_of_parts).

    Deliberately does not go through series_invert, so the two stay
    independent cross-checks of each other.
    """
    return QSeries(order, reciprocal_of_parts(range(1, a + 1), order))
