"""The tridiagonal matrix M(n)(X, q) and its determinant Q_n, computed two
independent ways: the three-term recurrence on packed ints (`det_recurrence`)
and fraction-free elimination (`det_oracle`).  Each call computes one Q_n;
a caller that needs Q_1..Q_n calls `det_recurrence` once per n.

Half powers of X and q are kept honest by working in auxiliary variables Y, P
with the reading Y^2 = X, P^2 = q.  Off-diagonal entries are Y*P^(i-1) at
position i, so the product across the diagonal at position i is X*q^(i-1).
"""

from __future__ import annotations

from .poly import InternalConsistencyError, QPoly, XQPoly, _read_slots, _slot_width


def build_matrix(n: int) -> list:
    """M(n) over the (Y, P) polynomial ring as a list of n rows, each a list of
    n MPoly entries; entry (i, j) in 1-based terms is rows[i - 1][j - 1]."""
    from .multi import HALF_VARS, MPoly

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


def _packed_recurrence(n: int, w: int):
    """Yield Q_1..Q_n of Q_(-1) = 0, Q_0 = 1, Q_m = Q_(m-1) - X q^(m-2) Q_(m-2),
    each as a list whose entry a is the X^a coefficient over its lowest power
    q^(a(a-1)), kept as one int: its value at q = 256**w."""
    older, old = [], [1]
    for m in range(1, n + 1):
        new = old + [0] * (m // 2 + 1 - len(old))
        for a, c in enumerate(older, 1):  # q^(m-2) q^((a-1)(a-2)) / q^(a(a-1))
            new[a] -= c << 8 * w * (m - 2 * a)
        older, old = old, new
        yield new


def _decode(packed: list, w: int) -> XQPoly:
    return XQPoly({a: QPoly._make(_read_slots(c, w, a * (a - 1)))
                   for a, c in enumerate(packed)})


def det_recurrence(n: int) -> XQPoly:
    """det M(n) by the packed recurrence, decoding only Q_n.  The absolute
    coefficients of Q_n sum to at most the Fibonacci number F_(n+1) < 2^n, so
    slots of `_slot_width(n)` bytes hold them."""
    if n <= 0:
        raise ValueError("n must be positive")
    w = _slot_width(n)
    for packed in _packed_recurrence(n, w):
        pass
    return _decode(packed, w)


def _bareiss_det(mat):
    """Determinant of a nonsingular square MPoly matrix by fraction-free
    elimination: the last pivot times the sign of the row permutation."""
    from .multi import _bareiss

    n = len(mat)
    m = [row[:] for row in mat]
    cols, sign = _bareiss(m, n)
    if len(cols) < n:
        raise InternalConsistencyError("zero pivot in fraction-free elimination")
    return m[n - 1][n - 1] * sign


def _reduce_half_vars(p) -> XQPoly:
    """Map Y^(2a) P^(2b) in an MPoly over (Y, P) to X^a q^b; odd exponents mean
    a bug upstream."""
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
