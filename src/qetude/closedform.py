"""Gaussian polynomials (q-binomial coefficients), the finite closed form of
the determinant, and its N-parameterized coefficient formula (N standing for
q^n).

A q-binomial is built one factor at a time, each step a multiplication by one
binomial 1 - q^k followed by an exact division by another, on a dense list of
int coefficients; every division asserts a zero remainder, and every finished
q-binomial is checked to have natural coefficients.  Each one comes from a
neighbour by one or two such steps: `gaussian_poly` from GP(m, i-1), and
`theorem2_value(n)` from the previous X-coefficient's.
"""

from __future__ import annotations

from itertools import accumulate

from .poly import InternalConsistencyError, QPoly, XQPoly, qpochhammer


def _binomial_step(c: list, up: int, down: int) -> list:
    """c * (1 - q^up) / (1 - q^down) on dense int coefficient lists (index =
    exponent), for up, down >= 1.

    Dividing by 1 - q^down from the low end is a running sum over each residue
    class mod down; the division is exact exactly when the top `down` entries
    of those sums (the remainder) are all zero.
    """
    c = c + [0] * up
    for e in range(len(c) - 1, up - 1, -1):
        c[e] -= c[e - up]
    for r in range(down):
        c[r::down] = accumulate(c[r::down])
    if any(c[-down:]):
        raise InternalConsistencyError("q-binomial division left a remainder")
    del c[-down:]
    return c


def gaussian_poly(m: int, n: int) -> QPoly:
    """GP(m, n) = prod_{i=1..n} (1 - q^(m+i)) / prod_{i=1..n} (1 - q^i).

    Built stepwise as GP(m, i) = GP(m, i-1) (1 - q^(m+i)) / (1 - q^i) for
    i = 1..n, each division exact with a zero-remainder assertion, and the
    result checked to have natural coefficients.  For -n <= m <= -1 a factor
    (1 - q^0) vanishes and the value is 0 by convention; m < -n is rejected.
    """
    if n < 0:
        raise ValueError("lower parameter must be nonnegative")
    if m < -n:
        raise ValueError("out of supported range")
    if -n <= m <= -1:
        return QPoly.zero()
    c = [1]
    for i in range(1, n + 1):
        c = _binomial_step(c, m + i, i)
    return _summand(c, 0)


def _summand(c: list, a: int) -> QPoly:
    """(-1)^a q^(a(a-1)) times the q-binomial with dense coefficients c (the
    X^a coefficient of the closed form; c itself for a = 0), after checking
    that c is natural."""
    if min(c) < 0:
        raise InternalConsistencyError("q-binomial has non-natural coefficients")
    s, sign = a * (a - 1), -1 if a % 2 else 1
    return QPoly._make({s + e: sign * v for e, v in enumerate(c) if v})


def theorem2_value(n: int) -> XQPoly:
    """The closed form: sum over a = 0..floor(n/2) of
    (-1)^a X^a q^(a(a-1)) GP(n-2a, a).

    GP(n-2a, a) = [n-a choose a] comes from [n-a+1 choose a-1] in two steps,
    to [n-a+1 choose a] (up n-2a+2, down a) and then to [n-a choose a]
    (up n-2a+1, down n-a+1): n steps for the whole value.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    c, coeffs = [1], {0: QPoly.one()}
    for a in range(1, n // 2 + 1):
        c = _binomial_step(_binomial_step(c, n - 2 * a + 2, a), n - 2 * a + 1, n - a + 1)
        coeffs[a] = _summand(c, a)
    return XQPoly(coeffs)


def coefficient_in_N(a: int):
    """Coefficient of X^a as a RationalFunc of (N, q):

        (N - q^a)...(N - q^(2a-1)) / (q^(a(a+1)/2) (1-q)...(1-q^a)).

    With the (1-q^i) denominator convention no overall sign factor appears:
    the alternating sign of the coefficients lives in the (N - q^j) and
    (1-q^i) factors themselves once N is specialized to q^n.

    The numerator is built as its row of coefficients in N, polynomials in q,
    lowest first: multiplying by N - q^j shifts the row up one place and
    subtracts q^j times it, the reverse of the synthetic division in
    `multi.trial_divide_numerator`.  Numerator and denominator are then lifted
    to (N, q) once each, expanded; trial division recovers the (N - q^j)
    roots.
    """
    from .multi import NQ_VARS, MPoly, RationalFunc, _lift_in_N

    if a < 0:
        raise ValueError("a must be nonnegative")
    zero = QPoly.zero()
    row = [QPoly.one()]
    for j in range(a, 2 * a):
        row = [lo - hi.shift(j) for lo, hi in zip([zero] + row, row + [zero])]
    return RationalFunc(_lift_in_N(row), MPoly.from_qpoly(
        qpochhammer(a).shift(a * (a + 1) // 2), NQ_VARS))


def coefficient_consistency(a: int, n: int) -> bool:
    """coefficient_in_N(a) at N = q^n equals (-1)^a q^(a(a-1)) GP(n-2a, a)."""
    from .multi import rational_agrees_at_qn

    if n < 2 * a:
        raise ValueError("need n >= 2a")
    p = gaussian_poly(n - 2 * a, a).shift(a * (a - 1))
    return rational_agrees_at_qn(coefficient_in_N(a), n, -p if a % 2 else p)
