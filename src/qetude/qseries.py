"""Truncated limit series, Rogers-Ramanujan product sides, brute-force
composition counting tying the determinant to integer-sequence data, and the
vendored b-file fixtures of those sequences."""

from __future__ import annotations

from .poly import QPoly, _coef
from .series import QSeries, pochhammer_reciprocal, reciprocal_of_parts


def theorem1_truncated(K: int) -> QSeries:
    """The n -> infinity limit of the determinant, truncated at order K.

    Sum over a with a(a-1) <= K of (-1)^a X^a q^(a(a-1)) / ((1-q)...(1-q^a)),
    with each reciprocal expanded exactly; coefficients are polynomials in X.
    """
    if K < 0:
        raise ValueError("order must be nonnegative")
    # X-degree -> coefficient of q^i, one map per i; each a adds one X^a term
    cols = [{} for _ in range(K + 1)]
    a = 0
    while a * (a - 1) <= K:
        shift = a * (a - 1)
        sign = -1 if a % 2 else 1
        for i, c in enumerate(pochhammer_reciprocal(a, K - shift).coeffs):
            if c:
                cols[i + shift][a] = sign * c
        a += 1
    return QSeries(K, [QPoly(c) for c in cols])


def substitute_x(s: QSeries, coeff, qexp: int) -> QSeries:
    """Substitute X <- coeff * q^qexp and re-truncate at the original order."""
    if qexp < 0:
        raise ValueError("substitution exponent must be nonnegative")
    coeff = _coef(coeff)
    out = [0] * (s.order + 1)
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
    truncated at order K; each factor is a stride-j running sum (see
    reciprocal_of_parts)."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    res = {r % modulus for r in residues}
    parts = [j for j in range(1, K + 1) if j % modulus in res]
    return QSeries(K, reciprocal_of_parts(parts, K))


def _r_partition_table(r: int, count: int) -> list:
    """rows[m][h]: compositions of m whose first part is at most h and whose
    consecutive differences are all >= r, for 0 <= h <= m <= count.

    Counted by first part: those with first part exactly h are the
    compositions of m - h whose first part is at most h - r, so each row is a
    running sum over h of entries of earlier rows.  The table never depends on
    the n being asked for, so one table serves every n <= count.
    """
    rows = [[1]]  # the empty composition of 0
    for m in range(1, count + 1):
        row = [0]
        for h in range(1, m + 1):
            rest = m - h
            row.append(row[-1] + rows[rest][min(max(h - r, 0), rest)])
        rows.append(row)
    return rows


def count_r_partitions(n: int, r: int) -> int:
    """Number of compositions (p_1, ..., p_k) of n with p_i - p_{i+1} >= r,
    counted combinatorially (never read off a series).

    Each call builds a fresh count table up to n; sequence_rpartitions shares
    one table across n = 1..count.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # the first part is unconstrained: at most n
    return _r_partition_table(r, n)[n][n]


def sequence_rpartitions(r: int, count: int) -> list:
    """count_r_partitions(n, r) for n = 1..count, from one shared table."""
    if count < 1:
        raise ValueError("count must be positive")
    rows = _r_partition_table(r, count)
    return [rows[n][n] for n in range(1, count + 1)]


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


def fixture_metadata() -> dict:
    """The vendored sequence fixtures: id -> file, offset and provenance."""
    import json
    from importlib import resources

    with resources.files("qetude.fixtures").joinpath("fixtures.json").open() as f:
        return json.load(f)


def load_fixture(sequence_id: str):
    """Vendored terms of one sequence as a list of (index, value)."""
    from importlib import resources

    meta = fixture_metadata()
    if sequence_id not in meta:
        raise KeyError(f"no vendored fixture for {sequence_id}")
    path = resources.files("qetude.fixtures").joinpath(meta[sequence_id]["file"])
    pairs = parse_bfile(path.read_text())
    offset = meta[sequence_id]["offset"]
    for i, (idx, _) in enumerate(pairs):
        if idx != offset + i:
            raise ValueError(f"{sequence_id}: indices not contiguous from {offset}")
    return pairs
