"""Desk-scale proof machinery.

Numeric recurrence replay, the per-coefficient rational identity behind the
induction, and telescoping-certificate verification in the substitution
variables N = q^n and A = q^a (treated as independent indeterminates, the
standard q-proper-hypergeometric device).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .closedform import coefficient_in_N
from .multi import CERT_VARS, NQ_VARS, MPoly, RationalFunc, _bareiss
from .poly import QPoly, XQPoly


class CheckResult:
    """Outcome of one check; detail carries the counterexample of a failure.
    The CLI renames a result to say what it ran on."""

    def __init__(self, ok, name="", detail=None):
        self.ok = ok
        self.name = name
        self.detail = detail

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

    def scaled(self, k) -> "Recurrence":
        return Recurrence(self.c0 * k, self.c1 * k, self.c2 * k)


def lehmer_operator() -> Recurrence:
    """S^2 - S + X N, the operator annihilating the determinant sequence."""
    X = MPoly.var(CERT_VARS, "X")
    N = MPoly.var(CERT_VARS, "N")
    return Recurrence(c0=X * N, c1=-MPoly.one(CERT_VARS), c2=MPoly.one(CERT_VARS))


class Certificate(namedtuple("Certificate", "value")):
    """Rational function of (q, X, N, A); the shift a -> a+1 maps A to qA."""
    __slots__ = ()

    def __new__(cls, value: RationalFunc):
        if value.vars != CERT_VARS:
            raise ValueError("certificate lives in the (q,X,N,A) ring")
        if value.den.is_zero():
            raise ZeroDivisionError("certificate denominator is zero")
        return super().__new__(cls, value)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def shifted_up(self) -> RationalFunc:
        """value with A -> qA."""
        return self.value.scale_var("A", "q")

    def shifted_down(self) -> RationalFunc:
        """value with A -> A/q."""
        return self.value.downscale_var("A", "q")


def check_recurrence_numeric(n_max: int, values) -> CheckResult:
    """values(n) satisfies the three-term recurrence with initial values 1 and
    1 - X, for 1 <= n <= n_max."""
    if n_max < 3:
        raise ValueError("need n_max >= 3")
    prev2, prev1 = values(1), values(2)
    if prev2 != XQPoly({0: QPoly.one()}):
        return CheckResult(False, "recurrence-numeric", "initial condition n=1")
    if prev1 != XQPoly({0: QPoly.one(), 1: -QPoly.one()}):
        return CheckResult(False, "recurrence-numeric", "initial condition n=2")
    for n in range(3, n_max + 1):
        cur = values(n)
        residual = cur - prev1 + prev2.shift_q(n - 2).shift_x(1)
        if not residual.is_zero():
            return CheckResult(False, "recurrence-numeric", n)
        prev2, prev1 = prev1, cur
    return CheckResult(True, "recurrence-numeric")


def check_coefficient_identity(a: int) -> CheckResult:
    """The per-X-degree identity behind the induction:

        C_a(N) = C_a(N/q) - (N/q^2) * C_{a-1}(N/q^2)

    verified by clearing denominators (cross-multiplication), no GCDs.
    """
    if a < 1:
        raise ValueError("a must be positive")
    c_a = coefficient_in_N(a)
    c_prev = coefficient_in_N(a - 1)
    n_over_q2 = RationalFunc(MPoly.var(NQ_VARS, "N"), MPoly.var(NQ_VARS, "q", 2))
    lhs = c_a - c_a.downscale_var("N", "q") \
        + n_over_q2 * c_prev.downscale_var("N", "q", 2)
    if lhs.is_zero():
        return CheckResult(True, f"coefficient-identity a={a}")
    return CheckResult(False, f"coefficient-identity a={a}", lhs.num.to_text())


def shift_ratios():
    """The summand's shift ratios as rational functions of (q, X, N, A).

    With F(n, a) = (-1)^a X^a q^(a(a-1)) GP(n-2a, a):
      r1 = F(n+1, a)/F(n, a),  r2 = F(n+2, a)/F(n, a),
      rA = F(n, a+1)/F(n, a).
    """
    q = MPoly.var(CERT_VARS, "q")
    X = MPoly.var(CERT_VARS, "X")
    N = MPoly.var(CERT_VARS, "N")
    A = MPoly.var(CERT_VARS, "A")
    one = MPoly.one(CERT_VARS)
    r1 = RationalFunc(A * (A - q * N), A * A - q * N)
    r2 = RationalFunc(A * A * (A - q * N) * (A - q * q * N),
                      (A * A - q * N) * (A * A - q * q * N))
    rA = RationalFunc(-X * (A * A - N) * (q * A * A - N),
                      q * A * (A - N) * (one - q * A))
    return r1, r2, rA


def operator_side(rec: Recurrence) -> RationalFunc:
    """(c2 F(n+2,a) + c1 F(n+1,a) + c0 F(n,a)) / F(n,a)."""
    r1, r2, _ = shift_ratios()
    return rec.c2 * r2 + rec.c1 * r1 + RationalFunc(rec.c0)


def check_certificate(rec: Recurrence, cert: Certificate) -> CheckResult:
    """Telescoping identity divided through by F(n, a):

        c2 r2 + c1 r1 + c0 = cert(N, qA) * rA - cert(N, A)

    as a cross-multiplied polynomial zero-test.
    """
    _, _, rA = shift_ratios()
    residual = operator_side(rec) - (cert.shifted_up() * rA - cert.value)
    if residual.is_zero():
        return CheckResult(True, "certificate")
    return CheckResult(False, "certificate", residual.num.to_text())


def check_certificate_down(rec: Recurrence, cert: Certificate) -> CheckResult:
    """The other telescoping orientation, G(n,a) - G(n,a-1):

        c2 r2 + c1 r1 + c0 = cert(N, A) - cert(N, A/q) / rA(N, A/q)
    """
    _, _, rA = shift_ratios()
    rA_down = rA.downscale_var("A", "q")
    residual = operator_side(rec) - (cert.value - cert.shifted_down() / rA_down)
    if residual.is_zero():
        return CheckResult(True, "certificate-down")
    return CheckResult(False, "certificate-down", residual.num.to_text())


def _denominator_basis():
    q = MPoly.var(CERT_VARS, "q")
    N = MPoly.var(CERT_VARS, "N")
    A = MPoly.var(CERT_VARS, "A")
    one = MPoly.one(CERT_VARS)
    return [A * A - q * N, A * A - q * q * N, A - N, one - q * A]


# the prime 2^61 - 1, and the point (q, X, N, A) the screen evaluates a
# system at: any point is sound, and one of large entries seldom meets a root
_PRIME = (1 << 61) - 1
_POINT = (1000003, 999983, 1299709, 15485863)


def _full_rank_mod_p(rows, rhs) -> bool:
    """True when [rows | rhs], a matrix of MPolys in CERT_VARS, has full
    column rank once evaluated at _POINT modulo _PRIME; False when it does
    not, and when an entry has a coefficient that is not an int."""
    mat = []
    for row, b in zip(rows, rhs):
        vals = []
        for p in row + [b]:
            acc = 0
            for e, v in p.terms.items():
                if type(v) is not int:
                    return False
                for x, k in zip(_POINT, e):
                    if k:
                        v = v * pow(x, k, _PRIME)
                acc += v
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
        sol[c] = acc / RationalFunc(row[c])
    return sol


def _certificate_systems(rec: Recurrence, degree_cap: int):
    """For each subset of the denominator factors, in search order: the
    denominator D they multiply to, and the linear system (rows, rhs) that
    the coefficients of P(A) = sum_k u_k A^k, k <= degree_cap, satisfy when
    P/D is a certificate for rec."""
    _, _, rA = shift_ratios()
    L = operator_side(rec)
    basis = _denominator_basis()
    q = MPoly.var(CERT_VARS, "q")
    subsets = [list(s) for size in range(len(basis) + 1)
               for s in combinations(range(len(basis)), size)]
    for subset in subsets:
        D = MPoly.one(CERT_VARS)
        for i in subset:
            D = D * basis[i]
        D_up = D.scale_var("A", "q")
        # 0 = Ln*D*D_up*rAd + P(A)*Ld*D_up*rAd - P(qA)*Ld*D*rAn
        const_part = L.num * D * D_up * rA.den
        keep = L.den * D_up * rA.den
        shift_part = L.den * D * rA.num
        columns = []
        for k in range(degree_cap + 1):
            Ak = MPoly.var(CERT_VARS, "A", k)
            col = Ak * keep - (q ** k) * Ak * shift_part
            columns.append(col)
        # collect coefficients of each power of A; coeffs_in zeroes the A
        # exponent, so the entries are polynomials in q, X, N alone
        const_coeffs = const_part.coeffs_in("A")
        degrees = set(const_coeffs)
        col_coeffs = []
        for col in columns:
            cc = col.coeffs_in("A")
            degrees.update(cc)
            col_coeffs.append(cc)
        zero = MPoly.zero(CERT_VARS)
        rows, rhs = [], []
        for d in sorted(degrees):
            rows.append([cc.get(d, zero) for cc in col_coeffs])
            rhs.append(-const_coeffs.get(d, zero))
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
            P = P + u * MPoly.var(CERT_VARS, "A", k)
        cert = Certificate(RationalFunc(P.num, P.den * D))
        if check_certificate(rec, cert):
            return cert
    raise ValueError("certificate not found at degree cap")


def literal_certificate() -> Certificate:
    """The one-line certificate X q^n, i.e. X*N, as historically printed."""
    return Certificate(RationalFunc(MPoly.var(CERT_VARS, "X") *
                                    MPoly.var(CERT_VARS, "N")))


def literal_certificate_report(rec: Recurrence = None) -> dict:
    """Whether the printed certificate verifies under either orientation."""
    rec = rec or lehmer_operator()
    cert = literal_certificate()
    return {
        "forward (G(n,a+1) - G(n,a))": bool(check_certificate(rec, cert)),
        "backward (G(n,a) - G(n,a-1))": bool(check_certificate_down(rec, cert)),
    }
