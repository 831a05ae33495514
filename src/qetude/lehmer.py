"""The tridiagonal matrix M(n)(X, q) and its determinant, computed two
independent ways.

Half powers of X and q are kept honest by working in auxiliary variables Y, P
with the reading Y^2 = X, P^2 = q.  Off-diagonal entries are Y*P^(i-1) at
position i, so the product across the diagonal at position i is X*q^(i-1).
"""

from __future__ import annotations

from .multi import HALF_VARS, MPoly
from .poly import InternalConsistencyError, QPoly, XQPoly


def build_matrix(n: int) -> list:
    """M(n) over the (Y, P) polynomial ring as a list of n rows, each a list of
    n MPoly entries; entry (i, j) in 1-based terms is rows[i - 1][j - 1]."""
    if n <= 0:
        raise ValueError("matrix size must be positive")
    zero = MPoly.zero(HALF_VARS)
    one = MPoly.one(HALF_VARS)
    Y = MPoly.var(HALF_VARS, "Y")
    P = MPoly.var(HALF_VARS, "P")
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = one
    for i in range(1, n):  # position i in 1-based terms
        off = Y * P ** (i - 1)
        rows[i - 1][i] = off
        rows[i][i - 1] = off
    return rows


_det_cache: dict[int, XQPoly] = {}


def det_recurrence(n: int) -> XQPoly:
    """det M(n) via the last-row expansion three-term recurrence.

    Q_1 = 1, Q_2 = 1 - X, Q_m = Q_{m-1} - X q^(m-2) Q_{m-2}.
    The whole prefix Q_1..Q_n is memoized.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n in _det_cache:
        return _det_cache[n]
    _det_cache.setdefault(1, XQPoly({0: QPoly.one()}))
    _det_cache.setdefault(2, XQPoly({0: QPoly.one(), 1: -QPoly.one()}))
    m = max(k for k in _det_cache if k <= n)
    while m < n:
        m += 1
        if m in _det_cache:
            continue
        step = _det_cache[m - 2].shift_q(m - 2).shift_x(1)  # times X q^(m-2)
        _det_cache[m] = _det_cache[m - 1] - step
    return _det_cache[n]


def _bareiss_det(mat) -> MPoly:
    """Fraction-free Gaussian elimination; divisions are exact by construction."""
    n = len(mat)
    m = [row[:] for row in mat]
    prev = MPoly.one(HALF_VARS)
    for k in range(n - 1):
        pivot = m[k][k]
        if pivot.is_zero():
            raise InternalConsistencyError("zero pivot in fraction-free elimination")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = MPoly.zero(HALF_VARS)
        prev = pivot
    return m[n - 1][n - 1]


def _reduce_half_vars(p: MPoly) -> XQPoly:
    """Map Y^(2a) P^(2b) -> X^a q^b; odd exponents mean a bug upstream."""
    acc: dict[int, dict[int, object]] = {}
    for (ey, ep), v in p.terms.items():
        if ey % 2 or ep % 2:
            raise InternalConsistencyError(
                f"odd half-variable exponent survived elimination: Y^{ey} P^{ep}")
        acc.setdefault(ey // 2, {})[ep // 2] = v
    return XQPoly({a: QPoly(c) for a, c in acc.items()})


def det_oracle(n: int) -> XQPoly:
    """Determinant of build_matrix(n) by Bareiss elimination over (Y, P).

    Shares no algorithmic idea with det_recurrence; intended for n up to ~14.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return _reduce_half_vars(_bareiss_det(build_matrix(n)))
