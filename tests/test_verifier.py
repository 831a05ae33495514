import pytest

from qetude import verifier
from qetude.closedform import gaussian_poly, theorem2_value
from qetude.lehmer import det_recurrence
from qetude.multi import CERT_VARS, NQ_VARS, MPoly, RationalFunc
from qetude.poly import QPoly, XQPoly
from qetude.verifier import (Certificate, CheckResult, Recurrence,
                             check_certificate, check_certificate_down,
                             check_coefficient_identity,
                             check_recurrence_numeric, lehmer_operator,
                             literal_certificate, literal_certificate_report,
                             operator_side, shift_ratios, solve_certificate)

X = MPoly.var(CERT_VARS, "X")
N = MPoly.var(CERT_VARS, "N")
one = MPoly.one(CERT_VARS)

# (n, a) with 2 <= n <= 13 and 0 <= a <= n/2
SUMMAND_GRID = [(n, a) for n in range(2, 14) for a in range(n // 2 + 1)]


def at_powers(p, n, a):
    """A (q, X, N, A) polynomial at N = q^n, A = q^a, as an XQPoly."""
    cols = {}
    for (eq, ex, en, ea), v in p.terms.items():
        col = cols.setdefault(ex, {})
        k = eq + n * en + a * ea
        col[k] = col.get(k, 0) + v
    return XQPoly({x: QPoly(c) for x, c in cols.items()})


def summand(n, a):
    """F(n, a) = (-1)^a X^a q^(a(a-1)) GP(n-2a, a)."""
    f = gaussian_poly(n - 2 * a, a).shift(a * (a - 1))
    return XQPoly({a: -f if a % 2 else f})


def ratio_holds(r, n, a, shifted):
    """r at (N, A) = (q^n, q^a) equals shifted / F(n, a), by cross-multiplying."""
    den = at_powers(r.den, n, a)
    return not den.is_zero() and \
        at_powers(r.num, n, a) * summand(n, a) == den * shifted


class TestNumericChecks:
    def test_determinant_satisfies_recurrence(self):
        assert check_recurrence_numeric(40, det_recurrence)

    def test_closed_form_satisfies_recurrence(self):
        assert check_recurrence_numeric(30, theorem2_value)

    def test_perturbed_values_fail_at_the_right_n(self):
        def bad(n):
            v = det_recurrence(n)
            from qetude.poly import XQPoly
            return v + XQPoly({1: QPoly.one()}) if n == 7 else v
        res = check_recurrence_numeric(12, bad)
        assert not res
        assert res.detail == 7

    def test_bad_initial_condition_detected(self):
        res = check_recurrence_numeric(5, lambda n: det_recurrence(n + 1))
        assert not res and "initial" in res.detail

    def test_requires_enough_terms(self):
        with pytest.raises(ValueError):
            check_recurrence_numeric(2, det_recurrence)


class TestCoefficientIdentity:
    @pytest.mark.parametrize("a", range(1, 9))
    def test_holds(self, a):
        assert check_coefficient_identity(a)

    def test_rejects_a0(self):
        with pytest.raises(ValueError):
            check_coefficient_identity(0)

    def test_rejects_a_perturbed_coefficient(self, monkeypatch):
        real = verifier.coefficient_in_N
        one_plus_q = MPoly.one(NQ_VARS) + MPoly.var(NQ_VARS, "q")

        def perturbed(a):
            c = real(a)
            return RationalFunc(c.num * one_plus_q, c.den) if a == 3 else c

        monkeypatch.setattr(verifier, "coefficient_in_N", perturbed)
        res = check_coefficient_identity(3)
        assert not res and res.detail
        assert check_coefficient_identity(1) and check_coefficient_identity(2)


class TestOperator:
    def test_lehmer_operator_coefficients(self):
        rec = lehmer_operator()
        assert rec.c2 == one and rec.c1 == -one and rec.c0 == X * N

    def test_leading_coefficient_must_be_nonzero(self):
        with pytest.raises(ValueError):
            Recurrence(X * N, -one, MPoly.zero(CERT_VARS))

    def test_coefficients_must_avoid_a(self):
        A = MPoly.var(CERT_VARS, "A")
        with pytest.raises(ValueError):
            Recurrence(A, -one, one)

    def test_operator_side_vanishes_nowhere_for_lehmer(self):
        # the summand alone does not satisfy the recurrence; telescoping is
        # genuinely needed
        assert not operator_side(lehmer_operator()).is_zero()


class TestCertificates:
    def test_solved_certificate_verifies(self):
        rec = lehmer_operator()
        cert = solve_certificate(rec, 4)
        assert check_certificate(rec, cert)

    def test_zero_certificate_fails(self):
        cert = Certificate(RationalFunc.const(CERT_VARS, 0))
        assert not check_certificate(lehmer_operator(), cert)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Certificate(RationalFunc(one, MPoly.zero(CERT_VARS)))

    def test_wrong_operator_has_no_certificate(self):
        rec = Recurrence(MPoly.zero(CERT_VARS), -one, one)
        with pytest.raises(ValueError, match="certificate not found"):
            solve_certificate(rec, 4)

    def test_check_is_linear_in_the_operator(self):
        rec = lehmer_operator()
        cert = solve_certificate(rec, 4)
        scaled_cert = Certificate(cert.value * RationalFunc.const(CERT_VARS, 7))
        assert check_certificate(rec.scaled(7), scaled_cert)

    @pytest.mark.parametrize("n,a", SUMMAND_GRID)
    def test_shift_ratios_match_the_summand(self, n, a):
        r1, r2, rA = shift_ratios()
        assert ratio_holds(r1, n, a, summand(n + 1, a))
        assert ratio_holds(r2, n, a, summand(n + 2, a))
        assert ratio_holds(rA, n, a, summand(n, a + 1))

    def test_perturbed_a_ratio_fails_on_the_grid(self):
        # negative control: rA with its factor q A^2 - N written A^2 - q N
        q = MPoly.var(CERT_VARS, "q")
        A = MPoly.var(CERT_VARS, "A")
        _, _, rA = shift_ratios()
        bad = RationalFunc(-X * (A * A - N) * (A * A - q * N), rA.den)
        assert not all(ratio_holds(bad, n, a, summand(n, a + 1))
                       for n, a in SUMMAND_GRID)

    def test_shift_ratios_are_consistent(self):
        # r2 must equal r1 composed with the N -> qN shift of r1
        r1, r2, _ = shift_ratios()
        assert (r1.scale_var("N", "q") * r1 - r2).is_zero()


class TestLiteralCertificate:
    def test_backward_orientation_only(self):
        report = literal_certificate_report()
        assert report == {
            "forward (G(n,a+1) - G(n,a))": False,
            "backward (G(n,a) - G(n,a-1))": True,
        }

    def test_literal_value_is_xn(self):
        assert literal_certificate().value.num == X * N

    def test_down_check_accepts_literal(self):
        assert check_certificate_down(lehmer_operator(), literal_certificate())


class TestCheckResult:
    def test_json_includes_counterexample_only_on_failure(self):
        ok = CheckResult(True, "demo")
        bad = CheckResult(False, "demo", 7)
        assert "counterexample" not in ok.to_json()
        assert bad.to_json()["counterexample"] == "7"
