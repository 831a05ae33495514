"""Desk-scale proof machinery.

Numeric recurrence replay, the per-coefficient rational identity behind the
induction, and telescoping-certificate verification in the substitution
variables N = q^n and A = q^a (treated as independent indeterminates, the
standard q-proper-hypergeometric device).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .closedform import coefficient_in_N
from .multi import CERT_VARS, NQ_VARS, MPoly, RationalFunc
from .poly import QPoly, XQPoly


@dataclass
class CheckResult:
    ok: bool
    name: str = ""
    detail: object = None

    def __bool__(self):
        return self.ok

    def to_json(self):
        out = {"check": self.name, "pass": self.ok}
        if not self.ok and self.detail is not None:
            out["counterexample"] = str(self.detail)
        return out


@dataclass(frozen=True)
class Recurrence:
    """Operator c2*S^2 + c1*S + c0 acting on sequences in n; S maps N to qN.

    Coefficients are polynomials in (q, X, N) embedded in the (q, X, N, A)
    ring.
    """
    c0: MPoly
    c1: MPoly
    c2: MPoly

    def __post_init__(self):
        if self.c2.is_zero():
            raise ValueError("leading operator coefficient must be nonzero")
        for c in (self.c0, self.c1, self.c2):
            if c.vars != CERT_VARS:
                raise ValueError("operator coefficients live in the (q,X,N,A) ring")
            if c.degree_in("A") > 0:
                raise ValueError("operator coefficients must not involve A")

    def scaled(self, k) -> "Recurrence":
        return Recurrence(self.c0 * k, self.c1 * k, self.c2 * k)


def lehmer_operator() -> Recurrence:
    """S^2 - S + X N, the operator annihilating the determinant sequence."""
    X = MPoly.var(CERT_VARS, "X")
    N = MPoly.var(CERT_VARS, "N")
    return Recurrence(c0=X * N, c1=-MPoly.one(CERT_VARS), c2=MPoly.one(CERT_VARS))


@dataclass(frozen=True)
class Certificate:
    """Rational function of (q, X, N, A); the shift a -> a+1 maps A to qA."""
    value: RationalFunc

    def __post_init__(self):
        if self.value.vars != CERT_VARS:
            raise ValueError("certificate lives in the (q,X,N,A) ring")
        if self.value.den.is_zero():
            raise ZeroDivisionError("certificate denominator is zero")

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
    if values(1) != XQPoly({0: QPoly.one()}):
        return CheckResult(False, "recurrence-numeric", "initial condition n=1")
    if values(2) != XQPoly({0: QPoly.one(), 1: -QPoly.one()}):
        return CheckResult(False, "recurrence-numeric", "initial condition n=2")
    prev2, prev1 = values(1), values(2)
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


def _solve_linear(rows, rhs):
    """Solve a linear system whose polynomial entries do not involve A, over
    the rational-function field of (q, X, N).

    Fraction-free forward elimination (Bareiss when divisions cooperate, plain
    cross-multiplication otherwise), then rational back substitution.  Free
    variables are set to 0; returns None if inconsistent.
    """
    vars = rows[0][0].vars
    m = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    n_rows, n_cols = len(m), len(rows[0])
    zero = MPoly.zero(vars)
    one = MPoly.one(vars)
    prev = one
    piv_cols = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n_rows):
            if m[i][c].is_zero() and prev == one:
                continue
            for j in range(c + 1, n_cols + 1):
                num = m[r][c] * m[i][j] - m[i][c] * m[r][j]
                div = num.try_exact_div(prev)
                m[i][j] = div if div is not None else num
            m[i][c] = zero
        prev = m[r][c]
        piv_cols.append(c)
        r += 1
    for i in range(r, n_rows):
        if not m[i][n_cols].is_zero():
            return None
    sol = [RationalFunc.const(vars, 0) for _ in range(n_cols)]
    for idx in reversed(range(len(piv_cols))):
        c = piv_cols[idx]
        acc = RationalFunc(m[idx][n_cols])
        for j in range(c + 1, n_cols):
            if not m[idx][j].is_zero() and not sol[j].is_zero():
                acc = acc - RationalFunc(m[idx][j]) * sol[j]
        sol[c] = acc / RationalFunc(m[idx][c])
    return sol


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
        sol = _solve_linear(rows, rhs)
        if sol is None:
            continue
        # assemble P over a common denominator
        common = MPoly.one(CERT_VARS)
        for u in sol:
            common = common * u.den
        P = MPoly.zero(CERT_VARS)
        for k, u in enumerate(sol):
            others = MPoly.one(CERT_VARS)
            for k2, u2 in enumerate(sol):
                if k2 != k:
                    others = others * u2.den
            P = P + u.num * others * MPoly.var(CERT_VARS, "A", k)
        if P.is_zero() and not L.is_zero():
            continue
        cert = Certificate(RationalFunc(P, common * D))
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
