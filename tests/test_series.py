from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qetude.poly import QPoly
from qetude.qseries import count_r_partitions, substitute_x, theorem1_truncated
from qetude.series import QSeries, pochhammer_reciprocal, series_invert

scalars = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


def unit_series(order):
    """Series with constant term 1, so inversion always succeeds."""
    return st.lists(scalars, min_size=order, max_size=order).map(
        lambda tail: QSeries(order, [Fraction(1)] + tail))


class TestQSeries:
    def test_one(self):
        s = QSeries.one(4)
        assert s.scalar_list() == [1, 0, 0, 0, 0]

    def test_truncation_to_min_order(self):
        a = QSeries(5, [1, 0, 0, 0, 0, 1])
        b = QSeries(2, [1])
        assert (a * b).order == 2
        assert (a + b).scalar_list() == [2, 0, 0]

    def test_multiplication_drops_overflow(self):
        s = QSeries(3, [0, 0, 1])
        assert (s * s).scalar_list() == [0, 0, 0, 0]

    def test_too_many_coefficients_rejected(self):
        with pytest.raises(ValueError):
            QSeries(1, [1, 2, 3])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            QSeries(-1)

    def test_coefficient_past_the_order_is_an_index_error(self):
        s = QSeries(3, [1, 2])
        with pytest.raises(IndexError, match="no q\\^4"):
            s.coeff(s.order + 1)

    def test_scalars_and_polynomials_are_coerced_to_series(self):
        s = QSeries(3, [1, 2])
        assert (s + 1).coeffs == (2, 2, 0, 0)
        x = QPoly({1: 1})  # a coefficient that stands for X
        assert (s * x).coeffs == (x, 2 * x, 0, 0)
        assert (s * x).order == 3

    def test_constant_polynomial_entries_give_their_scalars(self):
        s = QSeries(2, [QPoly({0: 2}), QPoly({0: Fraction(1, 2)})])
        assert s.scalar_list() == [2, Fraction(1, 2), 0]
        assert [type(c) for c in s.scalar_list()] == [int, Fraction, int]

    def test_entries_in_x_are_not_scalars(self):
        with pytest.raises(ValueError, match="not scalar"):
            theorem1_truncated(3).scalar_list()

    def test_constant_qpoly_entry_hashes_as_its_scalar(self):
        scalar = QSeries(2, [1, 0, 1])
        with_poly = QSeries(2, [1, QPoly.zero(), QPoly({0: 1})])
        assert scalar == with_poly
        assert hash(scalar) == hash(with_poly)
        assert len({scalar, with_poly}) == 1

    def test_hash_is_fixed_when_built(self):
        s = QSeries(3, [1, 2])
        h = hash(s)
        with pytest.raises(TypeError):
            s.coeffs[0] = 5
        assert s.coeffs == (1, 2, 0, 0) and hash(s) == h
        assert hash(QSeries(3, [1, 2, 0, 0])) == h

    def test_integral_entries_are_stored_as_ints(self):
        s = QSeries(4, [Fraction(4, 2), 3, Fraction(-6, 3), 0])
        assert s.coeffs == (2, 3, -2, 0, 0)
        assert all(type(c) is int for c in s.coeffs)
        assert all(type(c) is int for c in (s * s + s - s).coeffs)

    def test_inverse_with_non_unit_constant_has_fractions(self):
        inv = series_invert(QSeries(3, [2, 1]))
        assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8),
                              Fraction(-1, 16))
        assert all(type(c) is Fraction and c.denominator > 1 for c in inv.coeffs)

    def test_unit_constant_inverse_stays_integral(self):
        inv = series_invert(QSeries(5, [-1, 2, 0, 1]))
        assert all(type(c) is int for c in inv.coeffs)
        assert inv * QSeries(5, [-1, 2, 0, 1]) == QSeries.one(5)

    def test_int_fraction_and_constant_poly_entries_agree(self):
        forms = [QSeries(2, [1, 0, 3]),
                 QSeries(2, [Fraction(1), Fraction(0), Fraction(6, 2)]),
                 QSeries(2, [QPoly.one(), QPoly.zero(), QPoly({0: 3})])]
        for a in forms:
            for b in forms:
                assert a == b and hash(a) == hash(b)
        assert len(set(forms)) == 1

    def test_equal_polynomial_entries_hash_alike(self):
        a = QSeries(1, [1, QPoly({1: 1})])
        b = QSeries(1, [Fraction(1), QPoly({1: Fraction(2, 2)})])
        assert a == b and hash(a) == hash(b)


class TestInversion:
    def test_geometric(self):
        s = QSeries(3, [1, -1])
        assert series_invert(s).scalar_list() == [1, 1, 1, 1]
        assert series_invert(s) == QSeries(3, [1, 1, 1, 1])

    def test_pochhammer_reciprocal_counts_parts(self):
        # 1/((1-q)(1-q^2)) counts partitions into parts of size at most 2
        got = pochhammer_reciprocal(2, 6).scalar_list()
        assert got == [1, 1, 2, 2, 3, 3, 4]

    @pytest.mark.parametrize("a", range(9))
    def test_pochhammer_reciprocal_matches_inverted_product(self, a):
        # the running-sum kernel against long division of the series product
        for K in (0, 1, 7, 23, 60):
            prod = QSeries.one(K)
            for i in range(1, a + 1):
                # 1 - q^i, which truncates to 1 past order K
                factor = [1] + [0] * (i - 1) + [-1] if i <= K else [1]
                prod = prod * QSeries(K, factor)
            assert pochhammer_reciprocal(a, K) == series_invert(prod)

    def test_constant_qpoly_constant_term_is_inverted(self):
        inv = series_invert(QSeries(2, [QPoly({0: 2}), 1]))
        assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))

    def test_non_invertible(self):
        with pytest.raises(ValueError, match="non-invertible series"):
            series_invert(QSeries(3, [0, 1]))

    def test_constant_term_in_x_is_not_invertible(self):
        with pytest.raises(ValueError, match="constant term involves X"):
            series_invert(theorem1_truncated(3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30).flatmap(unit_series))
    def test_product_with_inverse_is_one(self, s):
        assert s * series_invert(s) == QSeries.one(s.order)

    def test_inversion_of_limit_series_counts_compositions(self):
        # head of the reciprocal of the X=q specialization, checked against
        # the direct r = -1 composition counter
        s = series_invert(substitute_x(theorem1_truncated(6), 1, 1))
        assert s.scalar_list() == [1, 1, 2, 4, 7, 13, 23]
        assert [count_r_partitions(n, -1) for n in range(1, 7)] == s.scalar_list()[1:]
