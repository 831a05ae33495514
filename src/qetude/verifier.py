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
denominator subset's rank test from the values of the three base products,
`BASIS` and `BASIS_UP` at one point modulo a prime, kept as polynomials in
A, and `_certificate_systems` builds the exact system only for a subset the
screen does not reject.  One builder, `_system`, forms each system.  A
rejection is sound, since evaluation at a point is a ring homomorphism (see
`_screen`), so the subset the exact solve accepts, and the certificate, are
the ones a search without the screen finds; by the Schwartz-Zippel bound
(J. T. Schwartz, J. ACM 27, 1980) a point of large entries seldom lets an
inconsistent system through to the exact solve.  The coefficient identity
loads `closedform` when it runs, so the certificate checks never load it.

`VERIFY_CHECKS` is what `qetude verify` runs: one entry per option, with
the value it runs at by default and the function that returns its results.
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
# the denominator factors occurring in the shift ratios, and the same after
# A -> qA: the factors of a certificate denominator D and of D(qA)
BASIS = (A * A - q * N, A * A - q * q * N, A - N, ONE - q * A)
BASIS_UP = tuple(b.scale_var("A", "q") for b in BASIS)
# the subsets of BASIS, as tuples of indices, in the order the search tries them
_SUBSETS = tuple(s for size in range(len(BASIS) + 1)
                 for s in combinations(range(len(BASIS)), size))


class CheckResult(namedtuple("CheckResult", "ok name detail", defaults=("", None))):
    """Outcome of one check; detail carries the counterexample of a failure.
    `VERIFY_CHECKS` names a copy (`_replace`) to say what it ran on."""
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
    if a < 1:
        raise ValueError("a must be positive")
    return next(_coefficient_identities(a, a))


def _coefficient_identities(a_max: int, a_min: int = 1):
    """Yield check_coefficient_identity(a) for a = a_min..a_max, building
    each C_a once."""
    from .closedform import coefficient_in_N

    n_var = MPoly.var(NQ_VARS, "N")  # N in the (N, q) ring, not the module's N
    c_prev = coefficient_in_N(a_min - 1)
    for a in range(a_min, a_max + 1):
        c_a = coefficient_in_N(a)
        k = None if c_a.den.degree_in("N") > 0 else c_a.den.try_exact_div(c_prev.den)
        if k is None:
            residual = c_a.scale_var("N", "q", 2) - c_a.scale_var("N", "q") + n_var * c_prev
        else:
            residual = RationalFunc(c_a.num.scale_var("N", "q", 2) - c_a.num.scale_var("N", "q")
                                    + n_var * c_prev.num * k, c_a.den)
        yield _zero_test(f"coefficient-identity a={a}", residual)
        c_prev = c_a


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
    """p at (q, X, N) = _POINT modulo _PRIME, as a QPoly whose variable
    stands for A; None when a coefficient is not an int."""
    out = [0] * (p.degree_in("A") + 1)
    for (i, j, k, a), v in p.terms.items():
        if type(v) is not int:
            return None
        out[a] += (v * pow(_POINT[0], i, _PRIME) * pow(_POINT[1], j, _PRIME)
                   * pow(_POINT[2], k, _PRIME))
    return QPoly({a: v % _PRIME for a, v in enumerate(out)})


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

    `_system` builds each system [rows | rhs] again from the values of bases,
    BASIS and BASIS_UP at (q, X, N) = _POINT modulo _PRIME, kept as
    polynomials in A, and reduces the coefficients of its products:
    evaluation there is a ring homomorphism that commutes with taking
    coefficients in A, so these are the values of the exact entries.  With n unknowns, full column rank n + 1 modulo _PRIME means an
    (n + 1)-minor of the exact system does not vanish at the point, so is not
    zero: the exact [rows | rhs] has rank n + 1, one more than rows can have,
    and the system is inconsistent.  The screen only rejects; it is off (never
    rejects) when an entry has a coefficient that is not an int."""
    values = [_in_A_mod_p(p) for p in (*bases, *BASIS, *BASIS_UP)]
    if None in values:
        yield from (False for _ in _SUBSETS)
        return
    q_powers = [pow(_POINT[0], k, _PRIME) for k in range(degree_cap + 1)]
    for subset in _SUBSETS:
        _, rows, rhs = _system(subset, values, QPoly.one(), 0, q_powers,
                              lambda p: {e: v % _PRIME for e, v in p.c.items()})
        yield _full_rank_mod_p([[v % _PRIME for v in row] + [b % _PRIME]
                                for row, b in zip(rows, rhs)])


def _system(subset, values, one, zero, q_powers, split):
    """(D, rows, rhs) of `_certificate_systems` for the subset of BASIS with
    the given indices.  values holds `_bases`, BASIS and BASIS_UP as
    polynomials in A with unit one; split maps such a polynomial to its dict
    exponent of A -> coefficient, and zero and q_powers (q^k for k <=
    degree_cap) are coefficients.  Run on the MPolys and, by `_screen`, on
    their values modulo _PRIME."""
    const_base, keep_base, shift_base, *factors = values
    D = D_up = one
    for i in subset:
        D, D_up = D * factors[i], D_up * factors[len(BASIS) + i]
    const = split(const_base * D * D_up)
    keep = split(keep_base * D_up)
    shift = split(shift_base * D)
    top = max(max(const, default=0), len(q_powers) - 1 + max([*keep, *shift]))
    rows, rhs = [], []
    for d in range(top + 1):
        row = [keep.get(d - k, zero) - qk * shift.get(d - k, zero)
               for k, qk in enumerate(q_powers)]
        b = -const.get(d, zero)
        if b or any(row):
            rows.append(row)
            rhs.append(b)
    return D, rows, rhs


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
    that of Ld*RAn*D; rhs d is minus the A^d coefficient of the first term.
    All-zero rows are left out.  `coeffs_in` zeroes the A exponent, so the
    entries are polynomials in q, X, N alone.  `_system` builds each system,
    here and in `_screen`.  A system is built only when the consumer asks for
    the next one, and a rejected one never."""
    bases = _bases(rec)
    values = (*bases, *BASIS, *BASIS_UP)
    zero = MPoly.zero(CERT_VARS)
    q_powers = [q ** k for k in range(degree_cap + 1)]
    for subset, rejected in zip(_SUBSETS, _screen(bases, degree_cap)):
        if not rejected:
            yield _system(subset, values, ONE, zero, q_powers, lambda p: p.coeffs_in("A"))


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


def _replays(n_max: int):
    """The recurrence replayed on the closed form and on the determinant."""
    from .closedform import theorem2_value
    from .lehmer import det_recurrence

    return (), [check_recurrence_numeric(n_max, values)._replace(
                    name=f"recurrence-numeric {label} n<={n_max}")
                for label, values in (("closed form", theorem2_value),
                                      ("determinant", det_recurrence))]


def _either_orientation(cert: Certificate):
    """Both orientations of cert for the Lehmer operator as informational
    results, and one result that passes when either holds."""
    rec = lehmer_operator()
    sides = {"G(n,a+1)-G(n,a)": check_certificate(rec, cert),
             "G(n,a)-G(n,a-1)": check_certificate_down(rec, cert)}
    failed = [f"{side}: {r.detail}" for side, r in sides.items() if not r.ok]
    return ([r._replace(name=f"certificate orientation {side} [informational]")
             for side, r in sides.items()],
            [CheckResult(len(failed) < 2, "certificate either orientation",
                         "; ".join(failed))])


def _solved(degree_cap: int):
    """Whether the search finds a certificate for the Lehmer operator; it
    returns only one that check_certificate passed, so it is tested once."""
    try:
        solve_certificate(lehmer_operator(), degree_cap)
    except ValueError as e:
        return (), [CheckResult(False, "certificate-solve", str(e))]
    return (), [CheckResult(True, "certificate")]


# What `verify` runs, in the order its results print: the option that selects
# an entry, the value it runs at when no option is given (None: only when
# asked), and a function of that value returning (informational results,
# results).  The informational results of every entry print first.
VerifyCheck = namedtuple("VerifyCheck", "option default run")
VERIFY_CHECKS = (
    VerifyCheck("numeric", 40, _replays),
    VerifyCheck("coefficient", 8, lambda a: ((), list(_coefficient_identities(a)))),
    VerifyCheck("certificate", None, _either_orientation),
    VerifyCheck("solve_certificate", None, _solved),
)
