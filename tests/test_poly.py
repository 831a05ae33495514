from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qetude.poly import QPoly, XQPoly, qpochhammer

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
qpolys = st.builds(QPoly, st.dictionaries(st.integers(0, 8), fractions, max_size=5))
# plain ints, integral Fractions and proper Fractions side by side
mixed = st.one_of(st.integers(-9, 9), fractions)
mixed_qpolys = st.builds(QPoly, st.dictionaries(st.integers(0, 8), mixed, max_size=5))
mixed_xqpolys = st.builds(XQPoly, st.dictionaries(st.integers(0, 4), mixed_qpolys,
                                                  max_size=4))


def assert_canonical(p):
    """Every stored coefficient is an int exactly when it is integral."""
    for v in p.c.values():
        assert v != 0
        if Fraction(v).denominator == 1:
            assert type(v) is int, p.c
        else:
            assert type(v) is Fraction, p.c


def naive_product(factors):
    """Schoolbook multiplier kept deliberately separate from QPoly.__mul__."""
    coeffs = {0: Fraction(1)}
    for f in factors:
        new = {}
        for e1, v1 in coeffs.items():
            for e2, v2 in f.items():
                new[e1 + e2] = new.get(e1 + e2, Fraction(0)) + v1 * v2
        coeffs = {e: v for e, v in new.items() if v}
    return QPoly(coeffs)


class TestQPolyArithmetic:
    def test_zero_and_one(self):
        assert QPoly.zero().is_zero()
        assert QPoly.one().degree() == 0
        assert (QPoly.one() - 1).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(qpolys, qpolys, qpolys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == QPoly.zero()

    @settings(max_examples=40, deadline=None)
    @given(qpolys, qpolys)
    def test_divmod_reconstruction(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ValueError):
            (QPoly.term(1) + 1).exact_div(QPoly.term(1))

    def test_pow_matches_repeated_multiplication(self):
        for p in (QPoly({0: 1, 1: -1}), QPoly({0: Fraction(1, 2), 1: -1, 3: 2})):
            want = QPoly.one()
            for k in range(7):
                assert p**k == want
                want = want * p


class TestRepresentation:
    @settings(max_examples=80, deadline=None)
    @given(mixed_qpolys, mixed_qpolys, st.integers(0, 4))
    def test_results_are_canonical(self, a, b, k):
        for p in (a, b, a + b, a - b, -a, a * b, a.shift(k),
                  QPoly.from_text(a.to_text()), QPoly.from_json(a.to_json())):
            assert_canonical(p)
        if not b.is_zero():
            quo, rem = a.divmod(b)
            assert_canonical(quo)
            assert_canonical(rem)
            assert quo * b + rem == a

    @settings(max_examples=60, deadline=None)
    @given(mixed_qpolys, st.one_of(mixed_qpolys, mixed))
    def test_subtraction_is_adding_the_negation(self, a, b):
        diff = a - b
        assert diff == a + (-b)
        assert_canonical(diff)
        assert (a - a).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(mixed_xqpolys, mixed_xqpolys)
    def test_x_subtraction_is_adding_the_negation(self, a, b):
        diff = a - b
        assert diff == a + (-b)
        for p in diff.coeffs.values():
            assert not p.is_zero()
            assert_canonical(p)
        assert (a - a).is_zero()

    def test_integral_fractions_become_ints(self):
        p = QPoly({0: Fraction(4, 2), 1: Fraction(1, 2)}) + QPoly({1: Fraction(1, 2)})
        assert p.c == {0: 2, 1: 1}
        assert all(type(v) is int for v in p.c.values())
        assert type(QPoly.one().coeff(5)) is int

    def test_divmod_falls_back_to_fractions(self):
        quo, rem = QPoly({0: 1, 1: 3}).divmod(QPoly({1: 2}))
        assert quo.c == {0: Fraction(3, 2)} and rem.c == {0: 1}
        quo, rem = QPoly({0: 1, 2: 4}).divmod(QPoly({0: 1, 1: 2}))
        assert quo.c == {0: -1, 1: 2} and rem.c == {0: 2}

    def test_division_by_qpochhammer_stays_integral(self):
        quo, rem = (qpochhammer(6) * QPoly({0: 3, 7: -5})).divmod(qpochhammer(4))
        assert rem.is_zero()
        assert quo.is_integral() and all(type(v) is int for v in quo.c.values())

    def test_values_are_read_only(self):
        p = QPoly({0: 1, 1: 2})
        with pytest.raises(TypeError):
            p.c[0] = 5
        v = XQPoly({0: p})
        with pytest.raises(TypeError):
            v.coeffs[1] = p

    def test_rebuilds_from_its_read_only_view(self):
        p = QPoly({0: 1, 3: Fraction(-2, 3)})
        assert QPoly(p.c) == p
        x = XQPoly({0: p, 2: QPoly.term(4)})
        assert XQPoly(x.coeffs) == x


class TestHashing:
    @pytest.mark.parametrize("p,scalar", [
        (QPoly.one(), 1),
        (QPoly.zero(), 0),
        (QPoly({0: Fraction(1, 2)}), Fraction(1, 2)),
        (QPoly({0: Fraction(-6, 3)}), -2),
    ])
    def test_constant_hashes_as_its_scalar(self, p, scalar):
        assert p == scalar and hash(p) == hash(scalar)
        assert len({p, scalar}) == 1

    def test_int_and_fraction_coefficients_hash_alike(self):
        a = QPoly({0: 2, 3: Fraction(1, 2)})
        b = QPoly({0: Fraction(6, 3)}) + QPoly({3: Fraction(1, 2)})
        assert a == b and hash(a) == hash(b)


class TestQPochhammer:
    def test_empty_product(self):
        assert qpochhammer(0) == QPoly.one()

    def test_single_factor(self):
        assert qpochhammer(1) == QPoly({0: 1, 1: -1})

    def test_a3_against_naive_multiplier(self):
        expected = naive_product([{0: 1, 1: -1}, {0: 1, 2: -1}, {0: 1, 3: -1}])
        assert qpochhammer(3) == expected
        assert qpochhammer(3).to_text() == "1 - q - q^2 + q^4 + q^5 - q^6"

    @pytest.mark.parametrize("a", range(8))
    def test_against_naive_multiplier(self, a):
        assert qpochhammer(a) == naive_product([{0: 1, i: -1} for i in range(1, a + 1)])


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(qpolys)
    def test_text_roundtrip(self, p):
        assert QPoly.from_text(p.to_text()) == p

    @settings(max_examples=60, deadline=None)
    @given(qpolys)
    def test_json_roundtrip(self, p):
        assert QPoly.from_json(p.to_json()) == p

    def test_canonical_text_form(self):
        p = QPoly({0: 1, 2: Fraction(-3, 2), 5: 1})
        assert p.to_text() == "1 - 3/2*q^2 + q^5"
        assert QPoly.from_text("1 - 3/2*q^2 + q^5") == p

    def test_zero_text(self):
        assert QPoly.zero().to_text() == "0"
        assert QPoly.from_text("0").is_zero()

    def test_reject_garbage(self):
        with pytest.raises(ValueError):
            QPoly.from_text("1 + %q")
        with pytest.raises(ValueError):
            QPoly.from_text("1 + z^2")


class TestXQPoly:
    def test_display_matches_documented_format(self):
        v = XQPoly({0: QPoly.one(), 1: -QPoly({0: 1, 1: 1, 2: 1}), 2: QPoly.term(2)})
        assert v.to_text() == "1 - (1+q+q^2)*X + q^2*X^2"

    def test_text_roundtrip(self):
        v = XQPoly({0: QPoly.one(), 1: -QPoly({0: 1, 1: 1}), 3: QPoly({0: -2, 4: 3})})
        assert XQPoly.from_text(v.to_text()) == v

    def test_json_roundtrip(self):
        v = XQPoly({0: QPoly.one(), 2: QPoly({2: 1, 3: Fraction(1, 3)})})
        assert XQPoly.loads(v.dumps()) == v

    def test_arithmetic(self):
        x = XQPoly({1: QPoly.one()})
        one = XQPoly.one()
        assert (one - x) * (one + x) == XQPoly({0: QPoly.one(), 2: -QPoly.one()})

    def test_zero_coefficients_dropped(self):
        v = XQPoly({0: QPoly.one(), 1: QPoly.zero()})
        assert 1 not in v.coeffs
