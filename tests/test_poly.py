import json
import re
from decimal import Decimal
from fractions import Fraction
from functools import partial
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from qetude.multi import CERT_VARS, NQ_VARS, MPoly, RationalFunc, rational_equal
from qetude.poly import (QPoly, XQPoly, _convolve, _packed_convolve, _power_text,
                         _read_slots, _signed_sum, _term, qpochhammer)
from qetude.series import QSeries

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


def schoolbook_x(a, b, multiply):
    """a * b, or a + b, of two XQPolys as X-degree -> {q-exponent: Fraction}
    with zeros dropped, summed term by term apart from the kernel."""
    if multiply:
        terms = [(x1 + x2, e1 + e2, v1 * v2)
                 for x1, p1 in a.coeffs.items() for x2, p2 in b.coeffs.items()
                 for e1, v1 in p1.c.items() for e2, v2 in p2.c.items()]
    else:
        terms = [(x, e, v) for p in (a, b) for x, c in p.coeffs.items()
                 for e, v in c.c.items()]
    out = {}
    for x, e, v in terms:
        row = out.setdefault(x, {})
        row[e] = row.get(e, Fraction(0)) + v
    out = {x: {e: v for e, v in row.items() if v} for x, row in out.items()}
    return {x: row for x, row in out.items() if row}


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

    def test_negative_shift_divides_by_a_power_of_q(self):
        p = QPoly({2: 1, 3: Fraction(5, 2)})
        assert p.shift(-2) == QPoly({0: 1, 1: Fraction(5, 2)})
        assert p.shift(-2).shift(2) == p
        with pytest.raises(ValueError, match=r"not divisible by q\^3"):
            p.shift(-3)

    def test_pow_matches_repeated_multiplication(self):
        for p in (QPoly({0: 1, 1: -1}), QPoly({0: Fraction(1, 2), 1: -1, 3: 2})):
            want = QPoly.one()
            for k in range(7):
                assert p**k == want
                want = want * p


class TestRepresentation:
    @settings(max_examples=80, deadline=None)
    @given(mixed_qpolys, mixed_qpolys, st.integers(0, 4), mixed_xqpolys, mixed_xqpolys)
    def test_results_are_canonical(self, a, b, k, x, y):
        for p in (a, b, a + b, a - b, -a, a * b, a.shift(k),
                  QPoly.from_text(a.to_text()), QPoly.from_json(a.to_json())):
            assert_canonical(p)
        for got, multiply in ((x + y, False), (x * y, True)):
            assert {d: dict(p.c) for d, p in got.coeffs.items()} == schoolbook_x(x, y, multiply)
            for p in got.coeffs.values():
                assert not p.is_zero()
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
        p = QPoly({1: Fraction(1, 2)}) * QPoly({0: 2, 1: Fraction(2, 3)})
        assert p.c == {1: 1, 2: Fraction(1, 3)}
        assert_canonical(p)
        # 1/2 + 1/2 inside an X-coefficient, by a sum and by a product
        half = QPoly({2: Fraction(1, 2)})
        x = XQPoly({1: half}) + XQPoly({1: half + QPoly({3: Fraction(1, 3)})})
        assert x.coeffs[1].c == {2: 1, 3: Fraction(1, 3)}
        y = XQPoly({0: Fraction(1, 2), 1: Fraction(1, 2)}) * XQPoly({0: 1, 1: 1})
        assert {d: dict(p.c) for d, p in y.coeffs.items()} == {0: {0: Fraction(1, 2)},
                                                               1: {0: 1}, 2: {0: Fraction(1, 2)}}
        for p in list(x.coeffs.values()) + list(y.coeffs.values()):
            assert_canonical(p)
        assert (XQPoly({0: 1, 1: 1}) * XQPoly({0: 1, 1: -1})).coeffs.keys() == {0, 2}

    def test_divmod_falls_back_to_fractions(self):
        quo, rem = QPoly({0: 1, 1: 3}).divmod(QPoly({1: 2}))
        assert quo.c == {0: Fraction(3, 2)} and rem.c == {0: 1}
        quo, rem = QPoly({0: 1, 2: 4}).divmod(QPoly({0: 1, 1: 2}))
        assert quo.c == {0: -1, 1: 2} and rem.c == {0: 2}

    def test_division_by_qpochhammer_stays_integral(self):
        quo, rem = (qpochhammer(6) * QPoly({0: 3, 7: -5})).divmod(qpochhammer(4))
        assert rem.is_zero()
        assert all(type(v) is int for v in quo.c.values())

    def test_values_are_read_only(self):
        p = QPoly({0: 1, 1: 2})
        with pytest.raises(TypeError):
            p.c[0] = 5
        v = XQPoly({0: p})
        with pytest.raises(TypeError):
            v.coeffs[1] = p

    @pytest.mark.parametrize("build, error", [
        (lambda: QPoly({1.5: 1}), TypeError),
        (lambda: QPoly({True: 1}), TypeError),
        (lambda: QPoly.from_json([["1", "1", "1"]]), TypeError),
        (lambda: MPoly(NQ_VARS, {(True, 0): 1}), TypeError),
        (lambda: MPoly(NQ_VARS, {(0, 1.5): 1}), TypeError),
        (lambda: XQPoly({-1: 1}), ValueError),
        (lambda: XQPoly({0.5: 1}), TypeError),
    ], ids=["qpoly-float", "qpoly-bool", "qpoly-json-string", "mpoly-bool",
            "mpoly-float", "xqpoly-negative", "xqpoly-float"])
    def test_each_type_rejects_an_exponent_that_is_not_a_nonnegative_int(
            self, build, error):
        with pytest.raises(error, match="negative exponent -1|not an int exponent"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: QPoly({0: 1.5}),
        lambda: QPoly({0: Decimal(1)}),
        lambda: MPoly(NQ_VARS, {(0, 0): 0.5}),
        lambda: XQPoly({0: 1.5}),
        lambda: QSeries(2, [1.5]),
        lambda: QPoly.one() * 1.5,
        lambda: MPoly.one(NQ_VARS) + 0.5,
    ], ids=["qpoly-float", "qpoly-decimal", "mpoly-float", "xqpoly-float",
            "qseries-float", "qpoly-times-float", "mpoly-plus-float"])
    def test_each_type_rejects_a_coefficient_that_is_not_rational(self, build):
        with pytest.raises(TypeError, match="not a rational coefficient|unsupported operand"):
            build()

    def test_zero_has_sign_0(self):
        assert QPoly().sign_uniform() == 0

    def test_a_bool_coefficient_is_stored_as_an_int(self):
        c = QPoly({0: True}).c[0]
        assert c == 1 and type(c) is int

    def test_rebuilds_from_its_read_only_view(self):
        p = QPoly({0: 1, 3: Fraction(-2, 3)})
        assert QPoly(p.c) == p
        x = XQPoly({0: p, 2: QPoly.term(4)})
        assert XQPoly(x.coeffs) == x


class TestSubtraction:
    @pytest.mark.parametrize("s", [3, Fraction(-2, 3)], ids=["int", "Fraction"])
    @pytest.mark.parametrize("build", [
        lambda c0, c2: QPoly({0: c0, 2: c2}),
        lambda c0, c2: MPoly(NQ_VARS, {(0, 0): c0, (2, 0): c2}),
        # c0 + c2 * N^2 / q
        lambda c0, c2: RationalFunc(MPoly(NQ_VARS, {(0, 1): c0, (2, 0): c2}),
                                    MPoly.var(NQ_VARS, "q")),
        lambda c0, c2: QSeries(3, [c0, 0, c2]),
    ], ids=["QPoly", "MPoly", "RationalFunc", "QSeries"])
    def test_scalar_minus_value_negates_the_difference(self, build, s):
        p, want = build(1, Fraction(1, 2)), build(s - 1, Fraction(-1, 2))
        same = rational_equal if isinstance(p, RationalFunc) else (lambda a, b: a == b)
        assert type(s - p) is type(p)
        assert same(s - p, want) and same(-(p - s), want)
        if isinstance(p, QPoly):
            assert_canonical(s - p)

    def test_minus_a_series_is_the_series_sum(self):
        got = QPoly.one() - QSeries.one(3)
        assert isinstance(got, QSeries)
        assert got == QPoly.one() + -QSeries.one(3) == QSeries(3, [])

    @pytest.mark.parametrize("value", [QPoly.one(), XQPoly.one()], ids=["QPoly", "XQPoly"])
    def test_minus_text_raises(self, value):
        with pytest.raises(TypeError, match="bad operand type for unary -: 'str'"):
            value - "x"


class TestForeignOperands:
    @pytest.mark.parametrize("op", [
        lambda: QSeries.one(2) + "x",
        lambda: XQPoly.one() * "x",
        lambda: MPoly.var(NQ_VARS, "N") + "x",
        lambda: RationalFunc(MPoly.var(NQ_VARS, "N")) + "x",
    ], ids=["QSeries+", "XQPoly*", "MPoly+", "RationalFunc+"])
    def test_text_operand_raises(self, op):
        with pytest.raises(TypeError):
            op()

    @pytest.mark.parametrize("value", [
        XQPoly.one(), QPoly.one(), MPoly.one(NQ_VARS), QSeries.one(2),
    ], ids=["XQPoly", "QPoly", "MPoly", "QSeries"])
    def test_never_equals_text(self, value):
        assert (value == "x") is False

    @pytest.mark.parametrize("value, text", [
        (MPoly.var(NQ_VARS, "N"), "MPoly('N')"),
        (RationalFunc(MPoly.var(NQ_VARS, "N"), MPoly.var(NQ_VARS, "q")),
         "RationalFunc('(N) / (q)')"),
        (XQPoly({1: QPoly({0: 1, 2: -1})}), "XQPoly('(1-q^2)*X')"),
        (QSeries.one(2), "QSeries(K=2, ['1', '0', '0'])"),
        (QPoly({0: 1, 2: Fraction(-1, 2)}), "QPoly('1 - 1/2*q^2')"),
    ], ids=["MPoly", "RationalFunc", "XQPoly", "QSeries", "QPoly"])
    def test_repr(self, value, text):
        assert repr(value) == text


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

    def test_scalar_and_qpoly_coefficients_hash_alike(self):
        a = XQPoly({0: 2, 1: Fraction(1, 2)})
        b = XQPoly({0: QPoly({0: Fraction(6, 3)}), 1: QPoly({0: Fraction(1, 2)})})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("value, attr, new", [
        (QPoly({1: 2}), "c", {3: 1}),
        (QSeries(2, [1]), "coeffs", (5, 0, 0)),
        (XQPoly({1: QPoly({0: 1, 2: -1})}), "coeffs", {0: QPoly.one()}),
        (MPoly(NQ_VARS, {(1, 0): 1, (0, 2): 3}), "terms", {(2, 0): 1}),
        (MPoly(NQ_VARS, {(1, 0): 1, (0, 2): 3}), "vars", ("P", "Y")),
        (RationalFunc(MPoly(NQ_VARS, {(1, 0): 1}), MPoly(NQ_VARS, {(0, 1): 1})),
         "num", MPoly.one(NQ_VARS)),
    ], ids=["QPoly.c", "QSeries.coeffs", "XQPoly.coeffs", "MPoly.terms", "MPoly.vars",
            "RationalFunc.num"])
    def test_attributes_cannot_be_rebound_or_deleted(self, value, attr, new):
        h, old = hash(value), getattr(value, attr)
        with pytest.raises(AttributeError):
            setattr(value, attr, new)
        with pytest.raises(AttributeError):
            delattr(value, attr)
        assert getattr(value, attr) is old and hash(value) == h


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

    @pytest.mark.parametrize("make", [lambda: QPoly({-1: 1}), lambda: QPoly.one() ** -1,
                                      lambda: qpochhammer(-1)],
                             ids=["negative-exponent", "negative-power", "qpochhammer"])
    def test_negative_sizes_are_rejected(self, make):
        with pytest.raises(ValueError, match="negative|>= 0"):
            make()


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

    @pytest.mark.parametrize("text, value", [
        ("2*3", QPoly({0: 6})), ("2*3*q", QPoly({1: 6})),
        ("1/2*1/2", QPoly({0: Fraction(1, 4)})), ("q*q", QPoly({2: 1})),
        ("(1+q)", QPoly({0: 1, 1: 1})), ("-(1 + q)^2", QPoly({0: -1, 1: -2, 2: -1})),
        ("2^3*q", QPoly({1: 8})), ("", QPoly()), ("  ", QPoly())])
    def test_every_factor_of_a_product_multiplies(self, text, value):
        assert QPoly.from_text(text) == value

    @pytest.mark.parametrize("text, value", [
        ("2*3*X", XQPoly({1: 6})),
        ("(1+q)*(1-q)*X", XQPoly({1: QPoly({0: 1, 2: -1})})),
        ("(-1+q)*X^2 - 2*q", XQPoly({0: QPoly({1: -2}), 2: QPoly({0: -1, 1: 1})}))])
    def test_xqpoly_products_multiply(self, text, value):
        assert XQPoly.from_text(text) == value

    @pytest.mark.parametrize("text, token", [
        ("-2*-3", "-"), ("3*", "end of text"), ("2 3", "3"), ("3q", "q"),
        ("2X", "X"), ("(1+q)X", "X"), ("1 + %q", "%"), ("1 + z^2", "z"),
        ("1 +", "end of text"), ("(1+q", "end of text"), ("1 + q)", ")"),
        ("q^", "end of text"), ("q^x", "x"), ("q^1/2", "1/2"), ("1 + -q", "-")])
    @pytest.mark.parametrize("parse", [QPoly.from_text, XQPoly.from_text,
                                       partial(MPoly.from_text, CERT_VARS)],
                             ids=["QPoly", "XQPoly", "MPoly"])
    def test_text_outside_the_grammar_names_its_token(self, parse, text, token):
        with pytest.raises(ValueError, match=f"at {re.escape(repr(token))}$"):
            parse(text)

    def test_division_by_zero_still_raises(self):
        with pytest.raises(ZeroDivisionError):
            QPoly.from_text("1/0*q")

    @pytest.mark.parametrize("parse, q", [
        (QPoly.from_text, QPoly.term(1)), (XQPoly.from_text, XQPoly({0: QPoly.term(1)})),
        (partial(MPoly.from_text, CERT_VARS), MPoly.var(CERT_VARS, "q"))],
        ids=["QPoly", "XQPoly", "MPoly"])
    def test_nesting_too_deep_to_read_names_its_token(self, parse, q):
        assert parse("(" * 200 + "q" + ")" * 200) == q
        with pytest.raises(ValueError, match=r"at '\('$"):
            parse("(" * 5000 + "q" + ")" * 5000)


class TestXQPoly:
    def test_display_matches_documented_format(self):
        v = XQPoly({0: QPoly.one(), 1: -QPoly({0: 1, 1: 1, 2: 1}), 2: QPoly.term(2)})
        assert v.to_text() == "1 - (1+q+q^2)*X + q^2*X^2"
        # a sign is moved outside only when every term of a coefficient has it
        v = XQPoly({0: -QPoly({1: 2}), 1: QPoly({0: 1, 2: Fraction(-1, 2)}), 3: -QPoly.one()})
        assert v.to_text() == "-2*q + (1-1/2*q^2)*X - X^3"

    def test_text_roundtrip(self):
        v = XQPoly({0: QPoly.one(), 1: -QPoly({0: 1, 1: 1}), 3: QPoly({0: -2, 4: 3})})
        assert XQPoly.from_text(v.to_text()) == v

    @settings(max_examples=200, deadline=None)
    @given(mixed_xqpolys)
    def test_text_roundtrip_of_any_value(self, x):
        assert XQPoly.from_text(x.to_text()) == x

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


# X-degrees up to 14: in string order "10" comes before "2"
wide_xqpolys = st.builds(XQPoly, st.dictionaries(st.integers(0, 14), mixed_qpolys,
                                                 max_size=15))
# twelve X-degrees with unit, negative, rational and all-negative coefficients
TWELVE_DEGREES = XQPoly({a: QPoly({0: a - 5, a + 1: (-1) ** a, a + 2: Fraction(1, a + 2)})
                         if a % 4 else QPoly({1: -1, a + 2: -3}) for a in range(12)})


def row_text(p, var="q", compact=False, signed=True):
    """p's text as the per-term display helpers write it."""
    return _signed_sum([(v < 0 and signed, _term(abs(v), _power_text(var, e)))
                        for e, v in p.terms()], compact)


def one_star_row_text(p, var="q", compact=False, signed=True):
    """A faulty writer: `1*q` where the display rule writes `q`."""
    return _signed_sum([(v < 0 and signed, f"{abs(v)}*{_power_text(var, e)}" if e
                         else str(abs(v))) for e, v in p.terms()], compact)


def xq_text(x, row=row_text):
    """x's text as `XQPoly.to_text` documents it, each row written by `row`."""
    terms = []
    for a, p in sorted(x.coeffs.items()):
        neg = p.sign_uniform() == -1
        inner = row(p, "q", True, not neg)
        terms.append((neg, _term(inner if len(p.c) == 1 else f"({inner})",
                                 _power_text("X", a))))
    return _signed_sum(terms)


def sorted_json(x):
    return json.dumps(x.to_json(), sort_keys=True)


class TestWriters:
    """The one-pass writers against the per-term display helpers and the
    json module, each check with a faulty writer it must reject."""

    @settings(max_examples=150, deadline=None)
    @given(wide_xqpolys)
    @example(XQPoly())
    @example(TWELVE_DEGREES)
    def test_dumps_is_sorted_json_that_reads_back(self, x):
        assert x.dumps() == sorted_json(x)
        assert XQPoly.loads(x.dumps()) == x

    def test_a_writer_sorting_keys_as_numbers_is_rejected(self):
        # to_json lists X-degrees in numeric order
        assert json.dumps(TWELVE_DEGREES.to_json()) != sorted_json(TWELVE_DEGREES)

    @settings(max_examples=150, deadline=None)
    @given(wide_xqpolys)
    @example(XQPoly())
    @example(TWELVE_DEGREES)
    def test_text_matches_the_display_helpers(self, x):
        assert x.to_text() == xq_text(x)
        for p in [*x.coeffs.values(), QPoly()]:
            for var in ("q", "X"):
                assert p.to_text(var) == row_text(p, var)

    def test_a_writer_printing_one_times_q_is_rejected(self):
        p = TWELVE_DEGREES.coeff(1)
        for var in ("q", "X"):
            assert one_star_row_text(p, var) != row_text(p, var)
        assert xq_text(TWELVE_DEGREES, one_star_row_text) != xq_text(TWELVE_DEGREES)


def loop_product(a, b):
    """The product of two maps, keys adding, by the loop over pairs of terms,
    apart from the kernel; zero values dropped."""
    c = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            c[k1 + k2] = c.get(k1 + k2, 0) + v1 * v2
    return {k: v for k, v in c.items() if v}


def signed(lo, hi):
    """Nonzero ints whose magnitude lies in [lo, hi], of either sign."""
    return st.tuples(st.booleans(), st.integers(lo, hi)).map(
        lambda t: -t[1] if t[0] else t[1])


def int_maps(lo, hi, top_key):
    return st.dictionaries(st.integers(0, top_key), signed(lo, hi),
                           min_size=10, max_size=24)


# magnitudes of one byte, of 2^20 to 2^25 (sums fill 8-byte slots), above
# 2^64 and above 2^200 (too wide for a slot: the loop)
MAGNITUDES = [(1, 127), (2**20, 2**25), (2**64, 2**65), (2**200, 2**201)]


class TestPackedProduct:
    """`_convolve` against the loop over pairs, on maps the packed product
    takes and on maps that fall back to the loop."""

    @pytest.mark.parametrize("lo, hi", MAGNITUDES, ids=["1-byte", "2^25", "2^64", "2^200"])
    @pytest.mark.parametrize("top_key", [40, 10**6], ids=["dense", "sparse"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equals_the_loop(self, lo, hi, top_key, data):
        a = data.draw(int_maps(lo, hi, top_key))
        b = data.draw(int_maps(lo, hi, top_key))
        shift = data.draw(st.integers(0, 50))
        a = {k + shift: v for k, v in a.items()}
        got = _convolve(a, b)
        assert got == loop_product(a, b)
        assert all(type(v) is int for v in got.values())

    @pytest.mark.parametrize("value", [1, -127, 2**61, -(2**64)])
    def test_one_term_maps(self, value):
        dense = {k: (-1) ** k * (k + 1) for k in range(120)}
        for a, b in (({7: value}, dense), (dense, {0: value}), ({3: value}, {5: 2})):
            assert _convolve(a, b) == loop_product(a, b)

    def test_dense_small_ints_take_the_packed_product(self):
        a = {k: (-1) ** k for k in range(12)}
        b = {k + 3: (-1) ** (k // 3) for k in range(0, 24, 2)}
        # every slot width: sums bounded by 2^4, 2^8, 2^16 and 2^32 need
        # slots of 1, 2, 4 and 8 bytes
        for scale in (1, 2**4, 2**12, 2**28):
            c = {k: scale * v for k, v in a.items()}
            got = _packed_convolve(c, b)
            assert got is not None and got == loop_product(c, b)

    def test_signed_slot_limits(self):
        # coefficients at the edge of each slot width, of both signs
        for bits in (6, 14, 30, 62):
            top = 2**bits // 10
            a = {k: top if k % 3 else -top for k in range(10)}
            b = {k: 1 for k in range(10)}
            got = _packed_convolve(a, b)
            assert got is not None and got == loop_product(a, b)

    @pytest.mark.parametrize("a, b", [
        ({k: 2**64 for k in range(12)}, {k: 1 for k in range(12)}),
        ({k * 1000: 1 for k in range(12)}, {k * 1000: 1 for k in range(12)}),
        ({k: Fraction(1, 2) for k in range(12)}, {k: 1 for k in range(12)}),
        ({k: 1 for k in range(12)}, {k: QPoly({0: 1, 1: 1}) for k in range(12)}),
    ], ids=["too-wide", "sparse", "fraction", "qpoly"])
    def test_falls_back_to_the_loop(self, a, b):
        assert _packed_convolve(a, b) is None
        assert _convolve(a, b) == loop_product(a, b)

    @pytest.mark.parametrize("vars, top", [(NQ_VARS, 9), (CERT_VARS, 3)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mpoly_product_equals_the_tuple_key_product(self, vars, top, data):
        exps = st.tuples(*[st.integers(0, top)] * len(vars))
        a, b = (data.draw(st.dictionaries(exps, signed(1, 2**data.draw(
            st.sampled_from([4, 20, 70]))), min_size=1, max_size=40))
                for _ in range(2))
        want = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = tuple(map(add, e1, e2))
                want[e] = want.get(e, 0) + v1 * v2
        assert dict((MPoly(vars, a) * MPoly(vars, b)).terms) == {
            e: v for e, v in want.items() if v}


class TestReadSlots:
    """`_read_slots`, the one decoder of both Kronecker kernels."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, data):
        w = data.draw(st.integers(1, 16))
        half = 2 ** (8 * w - 1)
        digits = data.draw(st.lists(st.integers(-half, half - 1), max_size=30))
        lo = data.draw(st.integers(-50, 50))
        x = sum(d << 8 * w * i for i, d in enumerate(digits))
        assert _read_slots(x, w, lo) == {lo + i: d for i, d in enumerate(digits) if d}

    @pytest.mark.parametrize("w", [1, 2, 8, 9, 16])
    def test_slot_edges(self, w):
        half = 2 ** (8 * w - 1)
        digits = [-half, half - 1, -1, 1, half - 1, -half]
        x = sum(d << 8 * w * i for i, d in enumerate(digits))
        assert _read_slots(x, w) == dict(enumerate(digits))

    def test_without_the_offset_a_negative_slot_reads_wrong(self):
        # digits [-5, 1] make 251; its bytes FB 00 read as signed slots give
        # [-5, 0], because the low slot's borrow is taken from the next one
        x = -5 + (1 << 8)
        raw = memoryview(x.to_bytes(2, "little", signed=True)).cast("b").tolist()
        assert raw == [-5, 0]
        assert _read_slots(x, 1) == {0: -5, 1: 1}
