"""Gaussian polynomials (q-binomial coefficients), the finite closed form of
the determinant, and its N-parameterized coefficient formula (N standing for
q^n)."""

from __future__ import annotations

from .poly import InternalConsistencyError, QPoly, XQPoly, qpochhammer


def gaussian_poly(m: int, n: int) -> QPoly:
    """GP(m, n) = prod_{i=1..n} (1 - q^(m+i)) / prod_{i=1..n} (1 - q^i).

    Computed by exact division with a zero-remainder assertion.  For
    -n <= m <= -1 a factor (1 - q^0) vanishes and the value is 0 by
    convention; m < -n is rejected.
    """
    if n < 0:
        raise ValueError("lower parameter must be nonnegative")
    if m < -n:
        raise ValueError("out of supported range")
    if -n <= m <= -1:
        return QPoly.zero()
    num = QPoly.one()
    for i in range(1, n + 1):
        num = num * QPoly({0: 1, m + i: -1})
    quo, rem = num.divmod(qpochhammer(n))
    if not rem.is_zero():
        raise InternalConsistencyError("q-binomial division left a remainder")
    if not (quo.is_integral() and all(v > 0 for _, v in quo.terms())):
        raise InternalConsistencyError("q-binomial has non-natural coefficients")
    return quo


def theorem2_value(n: int) -> XQPoly:
    """The closed form: sum over a = 0..floor(n/2) of
    (-1)^a X^a q^(a(a-1)) GP(n-2a, a)."""
    if n <= 0:
        raise ValueError("n must be positive")
    out = {}
    for a in range(n // 2 + 1):
        p = gaussian_poly(n - 2 * a, a).shift(a * (a - 1))
        if a % 2:
            p = -p
        if not p.is_zero():
            out[a] = p
    return XQPoly(out)


def coefficient_in_N(a: int):
    """Coefficient of X^a as a RationalFunc of (N, q):

        (N - q^a)...(N - q^(2a-1)) / (q^(a(a+1)/2) (1-q)...(1-q^a)).

    With the (1-q^i) denominator convention no overall sign factor appears:
    the alternating sign of the coefficients lives in the (N - q^j) and
    (1-q^i) factors themselves once N is specialized to q^n.

    Kept in the factored shape (expanded lazily by arithmetic) so trial
    division can recover the (N - q^j) roots.
    """
    from .multi import MPoly, NQ_VARS, RationalFunc

    if a < 0:
        raise ValueError("a must be nonnegative")
    N = MPoly.var(NQ_VARS, "N")
    q = MPoly.var(NQ_VARS, "q")
    num = MPoly.one(NQ_VARS)
    for j in range(a, 2 * a):
        num = num * (N - q**j)
    den = MPoly.var(NQ_VARS, "q", a * (a + 1) // 2) * MPoly.from_qpoly(
        qpochhammer(a), NQ_VARS, "q")
    return RationalFunc(num, den)


def coefficient_consistency(a: int, n: int) -> bool:
    """coefficient_in_N(a) at N = q^n equals (-1)^a q^(a(a-1)) GP(n-2a, a)."""
    from .multi import rational_agrees_at_qn

    if n < 2 * a:
        raise ValueError("need n >= 2a")
    rhs = gaussian_poly(n - 2 * a, a).shift(a * (a - 1))
    if a % 2:
        rhs = -rhs
    return rational_agrees_at_qn(coefficient_in_N(a), n, rhs)
