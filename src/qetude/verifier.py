"""Desk-scale proof machinery.

Numeric recurrence replay, the per-coefficient rational identity behind the
induction, and telescoping-certificate verification in the substitution
variables N = q^n and A = q^a (treated as independent indeterminates, the
standard q-proper-hypergeometric device).

Identities written in N/q or A/q are checked after the forward substitution
N -> q^k N or A -> qA (`scale_var`).  It is injective on polynomials, so the
zero-test proves exactly what it would before, with no division.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .closedform import coefficient_in_N
from .multi import CERT_VARS, NQ_VARS, MPoly, RationalFunc, _bareiss
from .poly import QPoly, XQPoly

# the generators of the (q, X, N, A) ring
q, X, N, A = (MPoly.var(CERT_VARS, v) for v in CERT_VARS)
ONE = MPoly.one(CERT_VARS)


class CheckResult(namedtuple("CheckResult", "ok name detail", defaults=("", None))):
    """Outcome of one check; detail carries the counterexample of a failure.
    The CLI names a copy (`_replace`) to say what it ran on."""
    __slots__ = ()

    def __bool__(self):
        return self.ok

    def to_json(self):
        out = {"check": self.name, "pass": self.ok}
        if not self.ok and self.detail is not None:
            out["counterexample"] = str(self.detail)
        return out


class Recurrence(namedtuple("Recurrence", "c0 c1 c2")):
    """Operator c2*S^2 + c1*S + c0 acting on sequences in n; S maps N to qN.

    Coefficients are polynomials in (q, X, N) embedded in the (q, X, N, A)
    ring.
    """
    __slots__ = ()

    def __new__(cls, c0: MPoly, c1: MPoly, c2: MPoly):
        if c2.is_zero():
            raise ValueError("leading operator coefficient must be nonzero")
        for c in (c0, c1, c2):
            if c.vars != CERT_VARS:
                raise ValueError("operator coefficients live in the (q,X,N,A) ring")
            if c.degree_in("A") > 0:
                raise ValueError("operator coefficients must not involve A")
        return super().__new__(cls, c0, c1, c2)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make and _replace would skip the checks in __new__
        return cls(*iterable)


def lehmer_operator() -> Recurrence:
    """S^2 - S + X N, the operator annihilating the determinant sequence."""
    return Recurrence(c0=X * N, c1=-ONE, c2=ONE)


class Certificate(namedtuple("Certificate", "value")):
    """Rational function of (q, X, N, A); the shift a -> a+1 maps A to qA."""
    __slots__ = ()

    def __new__(cls, value: RationalFunc):
        if value.vars != CERT_VARS:
            raise ValueError("certificate lives in the (q,X,N,A) ring")
        return super().__new__(cls, value)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def check_recurrence_numeric(n_max: int, values) -> CheckResult:
    """Q_n = values(n), or the n-th item of the iterable values, satisfies
    Q_n = Q_(n-1) - X q^(n-2) Q_(n-2) with initial values 1 and 1 - X, for
    1 <= n <= n_max; an iterable that ends before n_max raises ValueError.

    Each n is checked one X^a coefficient at a time, as
    Q_n[a] + q^(n-2) Q_(n-2)[a-1] == Q_(n-1)[a].
    """
    if n_max < 3:
        raise ValueError("need n_max >= 3")
    if callable(values):
        values = map(values, range(1, n_max + 1))
    one = QPoly.one()
    initial = {1: XQPoly({0: one}), 2: XQPoly({0: one, 1: -one})}
    n, prev1 = 0, None
    for n, cur in zip(range(1, n_max + 1), values):
        if n in initial:
            if cur != initial[n]:
                return CheckResult(False, "recurrence-numeric", f"initial condition n={n}")
        elif not _step_holds(cur.coeffs, prev1.coeffs, prev2.coeffs, n - 2):
            return CheckResult(False, "recurrence-numeric", n)
        prev2, prev1 = prev1, cur
    if n < n_max:
        raise ValueError(f"values end at n={n}, before n_max={n_max}")
    return CheckResult(True, "recurrence-numeric")


def _step_holds(cur, prev1, prev2, s: int) -> bool:
    """cur[a] + q^s prev2[a-1] == prev1[a] for every a, on maps X-degree ->
    QPoly."""
    empty = QPoly()
    top = max(max(cur, default=0), max(prev1, default=0), max(prev2, default=0) + 1)
    for a in range(top + 1):
        lhs = dict(cur.get(a, empty).c)
        for e, v in prev2.get(a - 1, empty).c.items():
            e += s
            v += lhs.pop(e, 0)
            if v:
                lhs[e] = v
        if lhs != prev1.get(a, empty).c:
            return False
    return True


def _zero_test(name: str, residual: RationalFunc) -> CheckResult:
    """Pass when residual is zero; a failure carries its numerator."""
    if residual.is_zero():
        return CheckResult(True, name)
    return CheckResult(False, name, residual.num.to_text())


def check_coefficient_identity(a: int) -> CheckResult:
    """The per-X-degree identity behind the induction,

        C_a(N) = C_a(N/q) - (N/q^2) * C_{a-1}(N/q^2),

    checked after N -> q^2 N, where it reads

        C_a(q^2 N) - C_a(qN) + N * C_{a-1}(N) = 0,

    with C_a = n_a / d_a.  When d_a is free of N and d_(a-1) divides it
    exactly, with quotient k (q^a (1 - q^a) for `coefficient_in_N`), all
    three terms lie over d_a, and the identity holds exactly when
    n_a(q^2 N) - n_a(qN) + N n_(a-1) k is zero.  Otherwise the three
    fractions are cross-multiplied.  No GCDs either way; a failure carries
    the numerator tested.
    """
    if a < 1:
        raise ValueError("a must be positive")
    return _coefficient_identity(a, coefficient_in_N(a), coefficient_in_N(a - 1))


def _coefficient_identities(a_max: int):
    """Yield check_coefficient_identity(a) for a = 1..a_max, building each
    C_a once."""
    c_prev = coefficient_in_N(0)
    for a in range(1, a_max + 1):
        c_a = coefficient_in_N(a)
        yield _coefficient_identity(a, c_a, c_prev)
        c_prev = c_a


def _coefficient_identity(a: int, c_a: RationalFunc, c_prev: RationalFunc) -> CheckResult:
    """check_coefficient_identity(a), given C_a and C_(a-1)."""
    n_var = MPoly.var(NQ_VARS, "N")  # N in the (N, q) ring, not the module's N
    k = None if c_a.den.degree_in("N") > 0 else c_a.den.try_exact_div(c_prev.den)
    if k is None:
        residual = c_a.scale_var("N", "q", 2) - c_a.scale_var("N", "q") + n_var * c_prev
    else:
        residual = RationalFunc(c_a.num.scale_var("N", "q", 2) - c_a.num.scale_var("N", "q")
                                + n_var * c_prev.num * k, c_a.den)
    return _zero_test(f"coefficient-identity a={a}", residual)


def shift_ratios():
    """The summand's shift ratios as rational functions of (q, X, N, A).

    With F(n, a) = (-1)^a X^a q^(a(a-1)) GP(n-2a, a):
      r1 = F(n+1, a)/F(n, a),  r2 = F(n+2, a)/F(n, a),
      rA = F(n, a+1)/F(n, a).
    """
    r1 = RationalFunc(A * (A - q * N), A * A - q * N)
    r2 = RationalFunc(A * A * (A - q * N) * (A - q * q * N),
                      (A * A - q * N) * (A * A - q * q * N))
    rA = RationalFunc(-X * (A * A - N) * (q * A * A - N),
                      q * A * (A - N) * (ONE - q * A))
    return r1, r2, rA


def operator_side(rec: Recurrence) -> RationalFunc:
    """(c2 F(n+2,a) + c1 F(n+1,a) + c0 F(n,a)) / F(n,a)."""
    r1, r2, _ = shift_ratios()
    return rec.c2 * r2 + rec.c1 * r1 + RationalFunc(rec.c0)


def _telescoping(name: str, lhs: RationalFunc, cert: Certificate,
                 rA: RationalFunc) -> CheckResult:
    """lhs = cert(N, qA) * rA - cert(N, A), as a cross-multiplied polynomial
    zero-test."""
    return _zero_test(name, lhs - (cert.value.scale_var("A", "q") * rA - cert.value))


def check_certificate(rec: Recurrence, cert: Certificate) -> CheckResult:
    """Telescoping identity G(n,a+1) - G(n,a) divided through by F(n, a):

        c2 r2 + c1 r1 + c0 = cert(N, qA) * rA - cert(N, A)
    """
    _, _, rA = shift_ratios()
    return _telescoping("certificate", operator_side(rec), cert, rA)


def check_certificate_down(rec: Recurrence, cert: Certificate) -> CheckResult:
    """The other telescoping orientation, G(n,a) - G(n,a-1):

        c2 r2 + c1 r1 + c0 = cert(N, A) - cert(N, A/q) / rA(N, A/q),

    checked after A -> qA and multiplied through by rA, which is not zero:

        (c2 r2 + c1 r1 + c0)(N, qA) * rA = cert(N, qA) * rA - cert(N, A)
    """
    _, _, rA = shift_ratios()
    lhs = operator_side(rec).scale_var("A", "q") * rA
    return _telescoping("certificate-down", lhs, cert, rA)


def _denominator_basis():
    return [A * A - q * N, A * A - q * q * N, A - N, ONE - q * A]


# the prime 2^61 - 1, and the point (q, X, N, A) the screen evaluates a
# system at: any point is sound, and one of large entries seldom meets a root
_PRIME = (1 << 61) - 1
_POINT = (1000003, 999983, 1299709, 15485863)


def _full_rank_mod_p(rows, rhs) -> bool:
    """True when [rows | rhs], a matrix of MPolys in CERT_VARS, has full
    column rank once evaluated at _POINT modulo _PRIME; False when it does
    not, and when an entry has a coefficient that is not an int.  Each
    monomial's value is computed once per call."""
    at = {}  # exponent tuple -> its monomial's value mod _PRIME
    mat = []
    for row, b in zip(rows, rhs):
        vals = []
        for p in row + [b]:
            acc = 0
            for e, v in p.terms.items():
                if type(v) is not int:
                    return False
                m = at.get(e)
                if m is None:
                    m = 1
                    for x, k in zip(_POINT, e):
                        if k:
                            m = m * pow(x, k, _PRIME) % _PRIME
                    at[e] = m
                acc += v * m
            vals.append(acc % _PRIME)
        mat.append(vals)
    for c in range(len(mat[0])):
        piv = next((r for r in range(c, len(mat)) if mat[r][c]), None)
        if piv is None:
            return False
        mat[c], mat[piv] = mat[piv], mat[c]
        inv = pow(mat[c][c], -1, _PRIME)
        for r in range(c + 1, len(mat)):
            f = mat[r][c] * inv % _PRIME
            mat[r] = [(x - f * y) % _PRIME for x, y in zip(mat[r], mat[c])]
    return True


def _solve_linear(rows, rhs):
    """Solve a linear system whose polynomial entries do not involve A, over
    the rational-function field of (q, X, N).

    A screen comes first.  If [rows | rhs], with n unknowns, has full column
    rank n + 1 at one integer point modulo a prime (`_full_rank_mod_p`), one
    of its (n + 1)-minors is a polynomial that does not vanish there, so is
    not zero.  Its rank over the rational functions is then n + 1, one more
    than rows can have: the system is inconsistent, and None is exact without
    the symbolic solve.  Otherwise the system is solved as it would be without
    the screen: fraction-free forward elimination (`multi._bareiss`) of the
    augmented matrix, then rational back substitution.  Free variables are set
    to 0; returns None if inconsistent.
    """
    if _full_rank_mod_p(rows, rhs):
        return None
    n_cols = len(rows[0])
    m = [row + [b] for row, b in zip(rows, rhs)]
    cols, _ = _bareiss(m, n_cols)
    if any(row[n_cols] for row in m[len(cols):]):
        return None
    sol = [RationalFunc.const(rows[0][0].vars, 0) for _ in range(n_cols)]
    for row, c in reversed(list(zip(m, cols))):
        acc = RationalFunc(row[n_cols])
        for j in range(c + 1, n_cols):
            if not row[j].is_zero() and not sol[j].is_zero():
                acc = acc - RationalFunc(row[j]) * sol[j]
        sol[c] = RationalFunc(acc.num, acc.den * row[c])
    return sol


def _certificate_systems(rec: Recurrence, degree_cap: int):
    """For each subset of the denominator factors, in search order: the
    denominator D they multiply to, and the linear system (rows, rhs) that
    the coefficients of P(A) = sum_k u_k A^k, k <= degree_cap, satisfy when
    P/D is a certificate for rec, that is when, with D_up = D(qA),

        0 = Ln*rAd*D*D_up + P(A)*Ld*rAd*D_up - P(qA)*Ld*rAn*D.

    Row d, column k is the A^(d-k) coefficient of Ld*rAd*D_up minus q^k times
    that of Ld*rAn*D; rhs d is minus the A^d coefficient of the first term.
    All-zero rows are left out.  `coeffs_in` zeroes the A exponent, so the
    entries are polynomials in q, X, N alone."""
    _, _, rA = shift_ratios()
    L = operator_side(rec)
    const_base = L.num * rA.den
    keep_base = L.den * rA.den
    shift_base = L.den * rA.num
    basis = _denominator_basis()
    subsets = [s for size in range(len(basis) + 1) for s in combinations(basis, size)]
    zero = MPoly.zero(CERT_VARS)
    q_powers = [q ** k for k in range(degree_cap + 1)]
    for subset in subsets:
        D = ONE
        for factor in subset:
            D = D * factor
        D_up = D.scale_var("A", "q")
        const = (const_base * D * D_up).coeffs_in("A")
        keep = (keep_base * D_up).coeffs_in("A")
        shift = (shift_base * D).coeffs_in("A")
        top = max(max(const, default=0), degree_cap + max([*keep, *shift]))
        rows, rhs = [], []
        for d in range(top + 1):
            row = [keep.get(d - k, zero) - qk * shift.get(d - k, zero)
                   for k, qk in enumerate(q_powers)]
            b = -const.get(d, zero)
            if b or any(row):
                rows.append(row)
                rhs.append(b)
        yield D, rows, rhs


def solve_certificate(rec: Recurrence, degree_cap: int) -> Certificate:
    """Bounded-degree certificate search.

    Posits cert = P(A)/D(A) with D a product of a subset of the denominator
    factors occurring in the shift ratios and P of degree <= degree_cap in A,
    with unknown coefficients rational in (q, X, N); solves the linear system
    obtained by clearing the telescoping identity and returns the first
    candidate that passes check_certificate.
    """
    if degree_cap < 1:
        raise ValueError("degree cap must be positive")
    for D, rows, rhs in _certificate_systems(rec, degree_cap):
        sol = _solve_linear(rows, rhs)
        if sol is None:
            continue
        # P = sum_k u_k A^k over the product of the u_k denominators
        P = RationalFunc.const(CERT_VARS, 0)
        for k, u in enumerate(sol):
            P = P + u * A ** k
        cert = Certificate(RationalFunc(P.num, P.den * D))
        if check_certificate(rec, cert):
            return cert
    raise ValueError("certificate not found at degree cap")


def literal_certificate() -> Certificate:
    """The one-line certificate X q^n, i.e. X*N, as historically printed."""
    return Certificate(RationalFunc(X * N))


def literal_certificate_report(rec: Recurrence = None) -> dict:
    """Whether the printed certificate verifies under either orientation."""
    rec = rec or lehmer_operator()
    cert = literal_certificate()
    return {
        "forward (G(n,a+1) - G(n,a))": bool(check_certificate(rec, cert)),
        "backward (G(n,a) - G(n,a-1))": bool(check_certificate_down(rec, cert)),
    }
