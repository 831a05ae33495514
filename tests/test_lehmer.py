import pytest

from qetude.lehmer import build_matrix, det_oracle, det_recurrence
from qetude.multi import HALF_VARS, MPoly
from qetude.poly import QPoly, XQPoly


class TestMatrix:
    def test_small_entries(self):
        m = build_matrix(3)
        one = MPoly.one(HALF_VARS)
        Y = MPoly.var(HALF_VARS, "Y")
        P = MPoly.var(HALF_VARS, "P")
        assert m[0][0] == one
        assert m[0][1] == Y
        assert m[1][0] == Y
        assert m[1][2] == Y * P
        assert m[2][1] == Y * P
        assert m[0][2].is_zero()

    def test_n1(self):
        assert build_matrix(1)[0][0] == MPoly.one(HALF_VARS)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            build_matrix(0)


class TestDeterminant:
    def test_first_values(self):
        assert det_recurrence(1) == XQPoly({0: QPoly.one()})
        assert det_recurrence(2).to_text() == "1 - X"
        assert det_recurrence(3).to_text() == "1 - (1+q)*X"
        assert det_recurrence(4).to_text() == "1 - (1+q+q^2)*X + q^2*X^2"
        assert det_recurrence(5).to_text() == \
            "1 - (1+q+q^2+q^3)*X + (q^2+q^3+q^4)*X^2"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_oracle_agrees_with_recurrence(self, n):
        assert det_oracle(n) == det_recurrence(n)

    def test_recurrence_identity_holds(self):
        # re-derive Q_m = Q_{m-1} - X q^(m-2) Q_{m-2} from stored values
        for m in range(3, 25):
            step = (det_recurrence(m - 2) * QPoly.term(m - 2)).shift_x(1)
            assert det_recurrence(m) == det_recurrence(m - 1) - step

    def test_structural_invariants(self):
        for n in range(2, 61):
            d = det_recurrence(n)
            assert max(d.coeffs) == n // 2
            assert d.coeff(0) == QPoly.one()
            for a, c in d.coeffs.items():
                if a == 0:
                    continue
                sign = -1 if a % 2 else 1
                assert all(sign * v > 0 for _, v in c.terms())
                assert c.low_degree() == a * (a - 1)

    def test_coefficients_are_ints(self):
        for n in range(1, 31):
            for p in det_recurrence(n).coeffs.values():
                assert all(type(v) is int for v in p.c.values())

    def test_memo_survives_mutating_the_result(self):
        expected = det_recurrence(5).to_text()
        with pytest.raises(TypeError):
            det_recurrence(5).coeffs[0] = QPoly.zero()
        assert det_recurrence(5).to_text() == expected

    def test_memo_survives_mutating_a_coefficient(self):
        expected = det_recurrence(6).to_text()
        with pytest.raises(TypeError):
            det_recurrence(6).coeff(1).c[0] = 7
        assert det_recurrence(6).to_text() == expected
        assert det_recurrence(7) == det_oracle(7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            det_recurrence(0)
        with pytest.raises(ValueError):
            det_oracle(-1)
