from fractions import Fraction

import pytest

from qetude.closedform import (coefficient_consistency, coefficient_in_N,
                               gaussian_poly, theorem2_value)
from qetude.lehmer import det_recurrence
from qetude.multi import MPoly, NQ_VARS, RationalFunc, rational_equal
from qetude.poly import QPoly


def gaussian_by_recurrence(m, n, qval):
    """Independent evaluator via the q-Pascal recurrence
    [m+n, n] = [m+n-1, n-1] + q^n [m+n-1, n], evaluated at a rational qval."""
    top, bot = m + n, n
    table = {}
    for t in range(top + 1):
        for b in range(min(t, bot) + 1):
            if b == 0 or b == t:
                table[t, b] = Fraction(1)
            else:
                table[t, b] = table[t - 1, b - 1] + qval**b * table[t - 1, b]
    return table[top, bot]


class TestGaussianPoly:
    def test_small_cases(self):
        assert gaussian_poly(2, 1).to_text() == "1 + q + q^2"
        assert gaussian_poly(2, 2).to_text() == "1 + q + 2*q^2 + q^3 + q^4"

    def test_conventions(self):
        assert gaussian_poly(0, 5) == QPoly.one()
        assert gaussian_poly(7, 0) == QPoly.one()
        assert gaussian_poly(-1, 3).is_zero()
        assert gaussian_poly(-3, 3).is_zero()
        with pytest.raises(ValueError):
            gaussian_poly(-4, 3)
        with pytest.raises(ValueError):
            gaussian_poly(2, -1)

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(6) for n in range(5)])
    def test_against_pascal_recurrence(self, m, n):
        p = gaussian_poly(m, n)
        for qval in (Fraction(2), Fraction(1, 3), Fraction(-5, 7)):
            assert sum(v * qval**e for e, v in p.c.items()) == \
                gaussian_by_recurrence(m, n, qval)

    def test_symmetry_in_parameters(self):
        for m in range(1, 6):
            for n in range(1, 6):
                assert gaussian_poly(m, n) == gaussian_poly(n, m)

    def test_palindromic_coefficients(self):
        p = gaussian_poly(4, 3)
        d = p.degree()
        assert all(p.coeff(e) == p.coeff(d - e) for e in range(d + 1))


class TestClosedForm:
    @pytest.mark.parametrize("n", range(1, 30))
    def test_matches_determinant(self, n):
        assert theorem2_value(n) == det_recurrence(n)

    def test_x2_coefficient_at_n10(self):
        got = theorem2_value(10).coeff(2)
        assert got.to_text() == ("q^2 + q^3 + 2*q^4 + 2*q^5 + 3*q^6 + 3*q^7 + "
                                 "4*q^8 + 3*q^9 + 3*q^10 + 2*q^11 + 2*q^12 + "
                                 "q^13 + q^14")

    def test_coefficients_are_ints(self):
        for n in range(1, 31):
            for p in theorem2_value(n).coeffs.values():
                assert all(type(v) is int for v in p.c.values())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            theorem2_value(0)


class TestCoefficientInN:
    def test_a0_is_one(self):
        assert rational_equal(coefficient_in_N(0),
                              RationalFunc(MPoly.one(NQ_VARS)))

    def test_a1_display(self):
        N = MPoly.var(NQ_VARS, "N")
        q = MPoly.var(NQ_VARS, "q")
        one = MPoly.one(NQ_VARS)
        assert rational_equal(coefficient_in_N(1),
                              RationalFunc(N - q, q * (one - q)))

    def test_a3_display(self):
        N = MPoly.var(NQ_VARS, "N")
        q = MPoly.var(NQ_VARS, "q")
        one = MPoly.one(NQ_VARS)
        num = (N - q**3) * (N - q**4) * (N - q**5)
        den = q**6 * (one - q) * (one - q**2) * (one - q**3)
        assert rational_equal(coefficient_in_N(3), RationalFunc(num, den))

    @pytest.mark.parametrize("a", range(9))
    def test_specializes_to_closed_form(self, a):
        for n in range(2 * a, 2 * a + 13):
            if n == 0:
                continue
            assert coefficient_consistency(a, n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            coefficient_in_N(-1)
        with pytest.raises(ValueError):
            coefficient_consistency(2, 3)
