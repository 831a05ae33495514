"""Truncated limit series, Rogers-Ramanujan product sides, and brute-force
composition counting tying the determinant to integer-sequence data."""

from __future__ import annotations

from fractions import Fraction

from .poly import QPoly
from .series import QSeries, geometric_series, pochhammer_reciprocal


def theorem1_truncated(K: int) -> QSeries:
    """The n -> infinity limit of the determinant, truncated at order K.

    Sum over a with a(a-1) <= K of (-1)^a X^a q^(a(a-1)) / ((1-q)...(1-q^a)),
    with each reciprocal expanded exactly; coefficients are polynomials in X.
    """
    if K < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [QPoly.zero(var="X") for _ in range(K + 1)]
    a = 0
    while a * (a - 1) <= K:
        shift = a * (a - 1)
        rec = pochhammer_reciprocal(a, K - shift)
        sign = -1 if a % 2 else 1
        for i, c in enumerate(rec.coeffs):
            if c:
                coeffs[i + shift] = coeffs[i + shift] + QPoly.term(a, sign * c, var="X")
        a += 1
    return QSeries(K, coeffs)


def substitute_x(s: QSeries, coeff, qexp: int) -> QSeries:
    """Substitute X <- coeff * q^qexp and re-truncate at the original order."""
    if qexp < 0:
        raise ValueError("substitution exponent must be nonnegative")
    coeff = Fraction(coeff)
    out = [Fraction(0)] * (s.order + 1)
    for i, c in enumerate(s.coeffs):
        if not isinstance(c, QPoly):
            out[i] += c
            continue
        for d, v in c.c.items():
            k = i + qexp * d
            if k <= s.order:
                out[k] += v * coeff**d
    return QSeries(s.order, out)


def rr_product_truncated(K: int, residues, modulus: int) -> QSeries:
    """prod over j >= 1 with j mod modulus in residues of 1/(1-q^j),
    truncated at order K."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    res = {r % modulus for r in residues}
    out = QSeries.one(K)
    for j in range(1, K + 1):
        if j % modulus in res:
            out = out * geometric_series(j, K)
    return out


def count_r_partitions(n: int, r: int) -> int:
    """Number of compositions (p_1, ..., p_k) of n with p_i - p_{i+1} >= r.

    Memoized recursion on (remaining, last part); the next part ranges over
    1..min(remaining, last - r).
    """
    if n < 1:
        raise ValueError("n must be positive")
    memo = {}

    def count(remaining, last):
        if remaining == 0:
            return 1
        # any last >= remaining + r leaves the next part unconstrained
        key = (remaining, min(last, remaining + r))
        if key in memo:
            return memo[key]
        hi = min(remaining, last - r)
        total = 0
        for p in range(1, hi + 1):
            total += count(remaining - p, p)
        memo[key] = total
        return total

    # the first part is unconstrained: pretend a previous part of n + r
    return count(n, n + r)


def sequence_rpartitions(r: int, count: int) -> list:
    if count < 1:
        raise ValueError("count must be positive")
    return [count_r_partitions(n, r) for n in range(1, count + 1)]


def bfile_text(values, offset: int = 1) -> str:
    """OEIS b-file format: one `n a(n)` line per term, newline-terminated."""
    return "".join(f"{offset + i} {v}\n" for i, v in enumerate(values))


def parse_bfile(text: str):
    """Parse b-file text into a list of (index, value); `#` comments ignored."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"malformed b-file line {lineno}: {line!r}")
        try:
            out.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ValueError(f"malformed b-file line {lineno}: {line!r}") from None
    return out
