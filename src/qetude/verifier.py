"""Desk-scale proof machinery.

Numeric recurrence replay of a function n -> Q_n, the per-coefficient
rational identity behind the induction, and telescoping-certificate
verification in the substitution variables N = q^n and A = q^a (treated as
independent indeterminates, the standard q-proper-hypergeometric device).
The ring's fixed objects are module values, built once at import: the
generators `q, X, N, A`, the summand's shift ratios `R1, R2, RA` and the
denominator factors `BASIS` the certificate search draws from.

Identities written in N/q or A/q are checked after the forward substitution
N -> q^k N or A -> qA (`scale_var`).  It is injective on polynomials, so the
zero-test proves exactly what it would before, with no division.

The certificate search rejects before it builds: `_screen` decides each
denominator subset's rank test from the values of the three base products
and of `BASIS` at one point modulo a prime, kept as polynomials in A, and
`_certificate_systems` builds the exact system only for a subset the screen
does not reject.  A rejection is sound, since evaluation at a point is a
ring homomorphism (see `_screen`), so the subset the exact solve accepts, and
the certificate, are the ones a search without the screen finds; by the
Schwartz-Zippel bound (J. T. Schwartz, J. ACM 27, 1980) a point of large
entries seldom lets an inconsistent system through to the exact solve.  The
coefficient identity loads `closedform` when it runs, so the certificate
checks never load it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .multi import _POINT, _PRIME, CERT_VARS, NQ_VARS, MPoly, RationalFunc, _bareiss
from .poly import QPoly, XQPoly

# the generators of the (q, X, N, A) ring
q, X, N, A = (MPoly.var(CERT_VARS, v) for v in CERT_VARS)
ONE = MPoly.one(CERT_VARS)

# The summand's shift ratios as rational functions of (q, X, N, A).  With
# F(n, a) = (-1)^a X^a q^(a(a-1)) GP(n-2a, a):
#   R1 = F(n+1, a)/F(n, a),  R2 = F(n+2, a)/F(n, a),  RA = F(n, a+1)/F(n, a).
R1 = RationalFunc(A * (A - q * N), A * A - q * N)
R2 = RationalFunc(A * A * (A - q * N) * (A - q * q * N),
                  (A * A - q * N) * (A * A - q * q * N))
RA = RationalFunc(-X * (A * A - N) * (q * A * A - N),
                  q * A * (A - N) * (ONE - q * A))
# the denominator factors occurring in the shift ratios
BASIS = (A * A - q * N, A * A - q * q * N, A - N, ONE - q * A)
# the subsets of BASIS, as tuples of indices, in the order the search tries them
_SUBSETS = tuple(s for size in range(len(BASIS) + 1)
                 for s in combinations(range(len(BASIS)), size))


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
    """Q_n = values(n) satisfies Q_n = Q_(n-1) - X q^(n-2) Q_(n-2) with
    initial values 1 and 1 - X, for 1 <= n <= n_max.

    Each n is checked one X^a coefficient at a time, as
    Q_n[a] + q^(n-2) Q_(n-2)[a-1] == Q_(n-1)[a].
    """
    if n_max < 3:
        raise ValueError("need n_max >= 3")
    one = QPoly.one()
    initial = {1: XQPoly({0: one}), 2: XQPoly({0: one, 1: -one})}
    prev1 = None
    for n in range(1, n_max + 1):
        cur = values(n)
        if n in initial:
            if cur != initial[n]:
                return CheckResult(False, "recurrence-numeric", f"initial condition n={n}")
        elif any(cur.coeff(a) + prev2.coeff(a - 1).shift(n - 2) != prev1.coeff(a)
                 for a in {*cur.coeffs, *prev1.coeffs, *(b + 1 for b in prev2.coeffs)}):
            return CheckResult(False, "recurrence-numeric", n)
        prev2, prev1 = prev1, cur
    return CheckResult(True, "recurrence-numeric")


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
    from .closedform import coefficient_in_N

    if a < 1:
        raise ValueError("a must be positive")
    return _coefficient_identity(a, coefficient_in_N(a), coefficient_in_N(a - 1))


def _coefficient_identities(a_max: int):
    """Yield check_coefficient_identity(a) for a = 1..a_max, building each
    C_a once."""
    from .closedform import coefficient_in_N

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


def operator_side(rec: Recurrence) -> RationalFunc:
    """(c2 F(n+2,a) + c1 F(n+1,a) + c0 F(n,a)) / F(n,a)."""
    return rec.c2 * R2 + rec.c1 * R1 + RationalFunc(rec.c0)


def _telescoping(name: str, lhs: RationalFunc, cert: Certificate) -> CheckResult:
    """lhs = cert(N, qA) * RA - cert(N, A), as a cross-multiplied polynomial
    zero-test."""
    return _zero_test(name, lhs - (cert.value.scale_var("A", "q") * RA - cert.value))


def check_certificate(rec: Recurrence, cert: Certificate) -> CheckResult:
    """Telescoping identity G(n,a+1) - G(n,a) divided through by F(n, a):

        c2 R2 + c1 R1 + c0 = cert(N, qA) * RA - cert(N, A)
    """
    return _telescoping("certificate", operator_side(rec), cert)


def check_certificate_down(rec: Recurrence, cert: Certificate) -> CheckResult:
    """The other telescoping orientation, G(n,a) - G(n,a-1):

        c2 R2 + c1 R1 + c0 = cert(N, A) - cert(N, A/q) / RA(N, A/q),

    checked after A -> qA and multiplied through by RA, which is not zero:

        (c2 R2 + c1 R1 + c0)(N, qA) * RA = cert(N, qA) * RA - cert(N, A)
    """
    lhs = operator_side(rec).scale_var("A", "q") * RA
    return _telescoping("certificate-down", lhs, cert)


def _in_A_mod_p(p: MPoly):
    """p at (q, X, N) = _POINT modulo _PRIME, as its list of coefficients in
    A, lowest first; None when a coefficient is not an int."""
    out = [0] * (p.degree_in("A") + 1)
    for (i, j, k, a), v in p.terms.items():
        if type(v) is not int:
            return None
        out[a] += (v * pow(_POINT[0], i, _PRIME) * pow(_POINT[1], j, _PRIME)
                   * pow(_POINT[2], k, _PRIME))
    return [v % _PRIME for v in out]


def _times_mod_p(a: list, b: list) -> list:
    """The product of two coefficient lists modulo _PRIME."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [v % _PRIME for v in out]


def _full_rank_mod_p(mat: list) -> bool:
    """Whether a matrix of ints modulo _PRIME has full column rank; Gaussian
    elimination in place."""
    for c in range(len(mat[0])):
        piv = next((r for r in range(c, len(mat)) if mat[r][c]), None)
        if piv is None:
            return False
        mat[c], mat[piv] = mat[piv], mat[c]
        inv = pow(mat[c][c], -1, _PRIME)
        for r in range(c + 1, len(mat)):
            f = mat[r][c] * inv % _PRIME
            if f:
                mat[r] = [(x - f * y) % _PRIME for x, y in zip(mat[r], mat[c])]
    return True


def _screen(bases, degree_cap: int):
    """For each subset of BASIS in search order (`_SUBSETS`), whether the
    screen proves its certificate system inconsistent.

    The system [rows | rhs] of `_certificate_systems` is built again from the
    values of bases and BASIS at (q, X, N) = _POINT modulo _PRIME, kept as
    polynomials in A: evaluation there is a ring homomorphism that commutes
    with taking coefficients in A, so these are the values of the exact
    entries.  The products const, keep and shift are formed as
    `_certificate_systems` forms them, and the rows are laid out by the same
    `_system_rows`; a change to the products in one must be made in the
    other.  With n unknowns, full column rank n + 1 modulo _PRIME means an
    (n + 1)-minor of the exact system does not vanish at the point, so is not
    zero: the exact [rows | rhs] has rank n + 1, one more than rows can have,
    and the system is inconsistent.  The screen only rejects; it is off (never
    rejects) when an entry has a coefficient that is not an int."""
    values = [_in_A_mod_p(p) for p in (*bases, *BASIS)]
    if None in values:
        yield from (False for _ in _SUBSETS)
        return
    const_base, keep_base, shift_base, *factors = values
    q_powers = [pow(_POINT[0], k, _PRIME) for k in range(degree_cap + 1)]
    for subset in _SUBSETS:
        D = [1]
        for i in subset:
            D = _times_mod_p(D, factors[i])
        D_up = [v * pow(_POINT[0], k, _PRIME) for k, v in enumerate(D)]
        const = _times_mod_p(_times_mod_p(const_base, D), D_up)
        keep = _times_mod_p(keep_base, D_up)
        shift = _times_mod_p(shift_base, D)
        rows = _system_rows(dict(enumerate(const)), dict(enumerate(keep)),
                            dict(enumerate(shift)), q_powers, 0)
        yield _full_rank_mod_p([[v % _PRIME for v in row] + [b % _PRIME]
                                for row, b in rows])


def _system_rows(const, keep, shift, q_powers, zero):
    """The rows (row, rhs) of a certificate system, one per power A^d up to
    the highest that occurs, all-zero rows included: row d, column k is
    keep[d-k] - q^k * shift[d-k], and rhs d is -const[d].

    const, keep and shift map exponents of A to the coefficients of
    Ln*RAd*D*D_up, Ld*RAd*D_up and Ld*RAn*D (see `_certificate_systems`);
    q_powers holds q^k for k <= degree_cap, and zero is the ring's zero.
    `_certificate_systems` lays out its MPolys with it and `_screen` their
    values modulo _PRIME, so the layout is written once."""
    top = max(max(const, default=0), len(q_powers) - 1 + max([*keep, *shift]))
    for d in range(top + 1):
        yield ([keep.get(d - k, zero) - qk * shift.get(d - k, zero)
                for k, qk in enumerate(q_powers)], -const.get(d, zero))


def _solve_linear(rows, rhs):
    """Solve a linear system whose polynomial entries do not involve A, over
    the rational-function field of (q, X, N): fraction-free forward
    elimination (`multi._bareiss`) of the augmented matrix, then rational
    back substitution.  Free variables are set to 0; returns None if
    inconsistent.  It runs on every system it is given; the certificate
    search screens its systems before building them (`_screen`)."""
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


def _bases(rec: Recurrence):
    """Ln*RAd, Ld*RAd and Ld*RAn, for L = operator_side(rec) = Ln/Ld: the
    products every certificate system of rec is built from."""
    L = operator_side(rec)
    return L.num * RA.den, L.den * RA.den, L.den * RA.num


def _certificate_systems(rec: Recurrence, degree_cap: int):
    """For each subset of the denominator factors, in search order, that
    `_screen` does not reject: the denominator D they multiply to, and the
    linear system (rows, rhs) that the coefficients of P(A) = sum_k u_k A^k,
    k <= degree_cap, satisfy when P/D is a certificate for rec, that is when,
    with D_up = D(qA),

        0 = Ln*RAd*D*D_up + P(A)*Ld*RAd*D_up - P(qA)*Ld*RAn*D.

    Row d, column k is the A^(d-k) coefficient of Ld*RAd*D_up minus q^k times
    that of Ld*RAn*D; rhs d is minus the A^d coefficient of the first term
    (`_system_rows`).  All-zero rows are left out.  `coeffs_in` zeroes the A
    exponent, so the entries are polynomials in q, X, N alone.  `_screen`
    forms the same products from values modulo _PRIME; a change to the
    products here must be made there.  A system is built only when the
    consumer asks for the next one, and a rejected one never."""
    bases = _bases(rec)
    const_base, keep_base, shift_base = bases
    zero = MPoly.zero(CERT_VARS)
    q_powers = [q ** k for k in range(degree_cap + 1)]
    for subset, rejected in zip(_SUBSETS, _screen(bases, degree_cap)):
        if rejected:
            continue
        D = ONE
        for i in subset:
            D = D * BASIS[i]
        D_up = D.scale_var("A", "q")
        const = (const_base * D * D_up).coeffs_in("A")
        keep = (keep_base * D_up).coeffs_in("A")
        shift = (shift_base * D).coeffs_in("A")
        rows, rhs = [], []
        for row, b in _system_rows(const, keep, shift, q_powers, zero):
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
    candidate that passes check_certificate.  Subsets whose system the mod-p
    screen proves inconsistent are skipped unbuilt (`_certificate_systems`):
    for the Lehmer operator at caps 3 to 6 that is the five subsets tried
    before the winning one, so one exact system is built and solved.
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
