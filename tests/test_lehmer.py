import gc
import tracemalloc

import pytest

from qetude.closedform import theorem2_value
from qetude.lehmer import (_decode, _packed_recurrence, _reduce_half_vars, build_matrix,
                           det_oracle, det_recurrence)
from qetude.multi import HALF_VARS, MPoly
from qetude.poly import InternalConsistencyError, QPoly, XQPoly


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

    @pytest.mark.parametrize("n", range(1, 15))
    def test_oracle_agrees_with_recurrence(self, n):
        assert det_oracle(n) == det_recurrence(n)

    def test_equal_to_the_closed_form_and_hashes_alike(self):
        d, t = det_recurrence(7), theorem2_value(7)
        assert d is not t and d == t and hash(d) == hash(t)
        assert len({d, t}) == 1

    def test_odd_half_variable_exponent_is_an_internal_error(self):
        with pytest.raises(InternalConsistencyError, match="Y\\^1 P\\^0"):
            _reduce_half_vars(MPoly.var(HALF_VARS, "Y"))

    def test_recurrence_identity_holds(self):
        # re-derive Q_m = Q_{m-1} - X q^(m-2) Q_{m-2} from computed values
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


def xqpoly_recurrence(n):
    """Q_1..Q_n by the recurrence in XQPoly arithmetic, index 0 unused."""
    dets = [None, XQPoly({0: QPoly.one()}), XQPoly({0: QPoly.one(), 1: -QPoly.one()})]
    for m in range(3, n + 1):
        dets.append(dets[m - 1] - dets[m - 2].shift_q(m - 2).shift_x(1))
    return dets


# where the slot width 1 << (n // 8).bit_length() changes: 1, 2, 4, 8, 16 bytes
WIDTH_EDGES = [7, 8, 15, 16, 31, 32, 63, 64]


@pytest.fixture(scope="module")
def one_shot():
    """det_recurrence(n) for n = 1..80, index 0 unused."""
    return [None] + [det_recurrence(n) for n in range(1, 81)]


class TestPackedKernel:
    """The packed-int recurrence: slots of 1 << (n // 8).bit_length() bytes."""

    @pytest.mark.parametrize("n", WIDTH_EDGES + [127, 128])
    def test_equals_the_closed_form_at_each_slot_width_boundary(self, n):
        assert det_recurrence(n) == theorem2_value(n)

    def test_coefficient_sums_meet_the_slot_bound(self, one_shot):
        # the absolute coefficients of Q_n sum to the Fibonacci number F_(n+1) < 2^n
        fib = [0, 1]
        for n in range(1, 81):
            fib.append(fib[-1] + fib[-2])
            total = sum(abs(v) for p in one_shot[n].coeffs.values() for v in p.c.values())
            assert total == fib[n + 1] < 2 ** n, n

    def test_too_narrow_a_slot_decodes_a_wrong_value(self, one_shot):
        for packed in _packed_recurrence(40, 1):
            pass
        assert _decode(packed, 1) != one_shot[40]
        assert _decode(packed, 1).coeff(0) == one_shot[40].coeff(0)  # a narrow coefficient

    def test_equals_the_xqpoly_recurrence(self):
        dets = xqpoly_recurrence(70)
        for n in range(1, 71):
            assert det_recurrence(n) == dets[n], n

    def test_keeps_no_memory_between_calls(self):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            det_recurrence(120)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2**20, f"{kept} bytes still held after the result was dropped"
