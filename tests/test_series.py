from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qetude.poly import QPoly
from qetude.qseries import count_r_partitions, substitute_x, theorem1_truncated
from qetude.series import (QSeries, geometric_series, pochhammer_reciprocal,
                           series_invert)

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

    def test_constant_qpoly_entry_hashes_as_its_scalar(self):
        scalar = QSeries(2, [1, 0, 1])
        with_poly = QSeries(2, [1, QPoly.zero(var="X"), QPoly({0: 1}, var="X")])
        assert scalar == with_poly
        assert hash(scalar) == hash(with_poly)
        assert len({scalar, with_poly}) == 1

    def test_equal_polynomial_entries_hash_alike(self):
        a = QSeries(1, [1, QPoly({1: 1}, var="X")])
        b = QSeries(1, [Fraction(1), QPoly({1: Fraction(2, 2)}, var="X")])
        assert a == b and hash(a) == hash(b)


class TestInversion:
    def test_geometric(self):
        s = QSeries(3, [1, -1])
        assert series_invert(s).scalar_list() == [1, 1, 1, 1]
        assert series_invert(s) == geometric_series(1, 3)

    def test_pochhammer_reciprocal_counts_parts(self):
        # 1/((1-q)(1-q^2)) counts partitions into parts of size at most 2
        got = pochhammer_reciprocal(2, 6).scalar_list()
        assert got == [1, 1, 2, 2, 3, 3, 4]

    def test_non_invertible(self):
        with pytest.raises(ValueError, match="non-invertible series"):
            series_invert(QSeries(3, [0, 1]))

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
