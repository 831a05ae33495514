import pytest

from qetude import verifier
from qetude.closedform import theorem2_value
from qetude.lehmer import det_recurrence
from qetude.multi import CERT_VARS, NQ_VARS, MPoly, RationalFunc
from qetude.poly import QPoly
from qetude.verifier import (Certificate, CheckResult, Recurrence,
                             check_certificate, check_certificate_down,
                             check_coefficient_identity,
                             check_recurrence_numeric, lehmer_operator,
                             literal_certificate, literal_certificate_report,
                             operator_side, shift_ratios, solve_certificate)

X = MPoly.var(CERT_VARS, "X")
N = MPoly.var(CERT_VARS, "N")
one = MPoly.one(CERT_VARS)


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
