from fractions import Fraction

import pytest

from qetude.lehmer import det_recurrence
from qetude.poly import QPoly
from qetude.qseries import (bfile_text, count_r_partitions, parse_bfile,
                            rr_product_truncated, sequence_rpartitions,
                            substitute_x, theorem1_truncated)
from qetude.series import QSeries, series_invert


class TestLimitSeries:
    def test_order_zero(self):
        s = theorem1_truncated(0)
        assert s.coeffs == (QPoly.from_text("1 - X", var="X"),)

    def test_x_coefficients_stabilize_to_determinant(self):
        # the q^i coefficient of det M(n) is eventually independent of n and
        # equals the q^i coefficient of the limit series
        K = 12
        s = theorem1_truncated(K)
        d = det_recurrence(40)
        for i in range(K + 1):
            got = QPoly({a: c.coeff(i) for a, c in d.coeffs.items()
                         if c.coeff(i)})
            assert s.coeff(i) == got

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            theorem1_truncated(-1)


class TestSubstitution:
    def test_x_is_q_head(self):
        got = substitute_x(theorem1_truncated(6), 1, 1).scalar_list()
        assert got == [1, -1, -1, -1, 0, 0, 1]

    def test_x_is_minus_q_matches_rr_product(self):
        K = 18
        lhs = substitute_x(theorem1_truncated(K), -1, 1)
        rhs = rr_product_truncated(K, {1, 4}, 5)
        assert lhs == rhs

    def test_x_is_minus_one_and_minus_q2_are_computable(self):
        # constant terms of the companion specializations; their product
        # identities are asserted below
        a = substitute_x(theorem1_truncated(8), -1, 0).scalar_list()
        b = substitute_x(theorem1_truncated(8), -1, 2).scalar_list()
        assert a[0] == 2 and b[0] == 1

    # the Rogers-Ramanujan companions (Andrews, The Theory of Partitions,
    # ch. 7): at X = -q^2 the sum is sum_a q^(a^2+a)/(q;q)_a, and at X = -1
    # q^(a^2-a)/(q;q)_a splits as q^(a^2)/(q;q)_a + q^(a^2-a)/(q;q)_(a-1)
    RR_ORDER = 150

    def test_x_is_minus_q2_is_the_second_rr_product(self):
        K = self.RR_ORDER
        lhs = substitute_x(theorem1_truncated(K), -1, 2)
        assert lhs == rr_product_truncated(K, {2, 3}, 5)
        # negative control: the first product in place of the second
        assert lhs != rr_product_truncated(K, {1, 4}, 5)

    def test_x_is_minus_one_is_the_sum_of_both_rr_products(self):
        K = self.RR_ORDER
        lhs = substitute_x(theorem1_truncated(K), -1, 0)
        assert lhs == (rr_product_truncated(K, {1, 4}, 5)
                       + rr_product_truncated(K, {2, 3}, 5))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            substitute_x(theorem1_truncated(2), 1, -1)


class TestRRProduct:
    def test_short_heads(self):
        assert rr_product_truncated(4, {1, 4}, 5).scalar_list() == [1, 1, 1, 1, 2]
        assert rr_product_truncated(3, {2, 3}, 5).scalar_list() == [1, 0, 1, 1]

    @pytest.mark.parametrize("residues,modulus", [({1, 4}, 5), ({2, 3}, 5),
                                                  ({1}, 2), ({0, 1}, 3), ({1}, 1)])
    def test_matches_product_of_inverted_factors(self, residues, modulus):
        res = {r % modulus for r in residues}
        for K in (0, 1, 13, 40):
            expected = QSeries.one(K)
            for j in range(1, K + 1):
                if j % modulus in res:
                    factor = QSeries(K, [1] + [0] * (j - 1) + [-1])
                    expected = expected * series_invert(factor)
            assert rr_product_truncated(K, residues, modulus) == expected

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            rr_product_truncated(3, {1}, 0)


class TestCounting:
    def test_examples(self):
        assert count_r_partitions(13, 2) == 10
        assert count_r_partitions(8, 1) == 6
        assert count_r_partitions(5, -4) == 16

    def test_very_negative_r_counts_all_compositions(self):
        for n in range(1, 9):
            assert count_r_partitions(n, -(n - 1)) == 2 ** (n - 1)

    def test_r1_matches_distinct_part_partitions(self):
        # strictly decreasing compositions are partitions into distinct parts
        K = 14
        prod = QSeries.one(K)
        for i in range(1, K + 1):
            prod = prod * QSeries(K, [1] + [0] * (i - 1) + [1])
        assert sequence_rpartitions(1, K) == [int(c) for c in prod.scalar_list()[1:]]

    def test_r2_matches_gap_two_product(self):
        K = 16
        rr = rr_product_truncated(K, {1, 4}, 5).scalar_list()
        assert sequence_rpartitions(2, K) == [int(c) for c in rr[1:]]

    def test_monotone_in_r(self):
        # relaxing the difference constraint can only add compositions
        for n in (6, 9, 12):
            counts = [count_r_partitions(n, r) for r in range(3, -4, -1)]
            assert counts == sorted(counts)

    @pytest.mark.parametrize("r", range(-3, 4))
    def test_shared_table_matches_fresh_counts(self, r):
        for c in (1, 2, 17, 30):
            assert sequence_rpartitions(r, c) == [count_r_partitions(n, r)
                                                  for n in range(1, c + 1)]

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            count_r_partitions(0, -1)
        with pytest.raises(ValueError):
            count_r_partitions(0, 2)
        with pytest.raises(ValueError):
            sequence_rpartitions(-1, 0)


class TestBfile:
    def test_roundtrip(self):
        text = bfile_text([1, 2, 4, 7], offset=1)
        assert text == "1 1\n2 2\n3 4\n4 7\n"
        assert parse_bfile(text) == [(1, 1), (2, 2), (3, 4), (4, 7)]

    def test_comments_and_blanks_ignored(self):
        parsed = parse_bfile("# header\n\n0 1\n1 -1\n")
        assert parsed == [(0, 1), (1, -1)]

    def test_malformed_line_names_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_bfile("1 1\n2 two\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_bfile("1 2 3\n")
