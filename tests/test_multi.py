import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, repeat
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from qetude import verifier
from qetude.closedform import coefficient_in_N
from qetude.discovery import synthesize_conjecture
from qetude.lehmer import _bareiss_det, build_matrix, det_oracle, det_recurrence
from qetude.multi import (CERT_VARS, MPoly, NQ_VARS, RationalFunc, _bareiss,
                          interpolate_in_N, eval_rational_at_qn,
                          rational_agrees_at_qn, rational_equal,
                          trial_divide_numerator)
from qetude.poly import InternalConsistencyError, QPoly, XQPoly, _coef
from qetude.verifier import _certificate_systems, _solve_linear, lehmer_operator

N = MPoly.var(NQ_VARS, "N")
q = MPoly.var(NQ_VARS, "q")
one = MPoly.one(NQ_VARS)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
npolys = st.builds(lambda t: MPoly(NQ_VARS, t),
                   st.dictionaries(exps, fractions, max_size=4))
# plain ints, integral Fractions and proper Fractions side by side
mixed = st.one_of(st.integers(-6, 6), fractions)
mixed_npolys = st.builds(lambda t: MPoly(NQ_VARS, t),
                         st.dictionaries(exps, mixed, max_size=4))
mixed_qpolys = st.builds(QPoly, st.dictionaries(st.integers(0, 8), mixed, max_size=5))
int_qpolys = st.builds(QPoly, st.dictionaries(st.integers(0, 4), st.integers(-3, 3),
                                              max_size=2))


# small exponents, and large ones on both sides of powers of two
wide_exps = st.one_of(st.integers(0, 70), st.sampled_from([255, 256, 2**16 - 1, 2**16]))


def wide_polys(vars, max_size=4):
    return st.builds(lambda t: MPoly(vars, t),
                     st.dictionaries(st.tuples(*[wide_exps] * len(vars)), mixed,
                                     max_size=max_size))


def one_term_polys(vars):
    return st.builds(lambda e, v: MPoly(vars, {e: v}),
                     st.tuples(*[wide_exps] * len(vars)), mixed.filter(bool))


rings = st.sampled_from([NQ_VARS, CERT_VARS])


def ref_mul(a, b):
    """Schoolbook product on exponent tuples."""
    t = {}
    for e1, v1 in a.terms.items():
        for e2, v2 in b.terms.items():
            e = tuple(map(add, e1, e2))
            t[e] = t.get(e, 0) + v1 * v2
    return {e: _coef(v) for e, v in t.items() if v}


def ref_try_exact_div(a, b):
    """Reduction by the lex lead of b on exponent tuples, rescanning the
    remainder for its lead at every step; None once a lead is not divisible
    by b's lead, or once a quotient exponent leaves the box
    deg_i(a) - deg_i(b), in which an exact quotient lies."""
    rem = dict(a.terms)
    quo = {}
    dlead = max(b.terms)
    dcoef = b.terms[dlead]
    box = [max((e[i] for e in a.terms), default=0) - max(e[i] for e in b.terms)
           for i in range(len(a.vars))]
    while rem:
        e = max(rem)
        v = rem.pop(e)
        de = tuple(map(sub, e, dlead))
        if min(de) < 0 or any(d > top for d, top in zip(de, box)):
            return None
        f = _coef(Fraction(v) / dcoef)
        quo[de] = f
        for e2, v2 in b.terms.items():
            if e2 != dlead:
                k = tuple(map(add, de, e2))
                r = rem.get(k, 0) - f * v2
                if r:
                    rem[k] = r
                else:
                    rem.pop(k, None)
    return quo


@contextmanager
def time_limit(seconds):
    """Turn a division that never ends into a failure: with a wrong
    divisibility test the lead can stop decreasing."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_canonical(p):
    """Every stored coefficient is nonzero, never a float, and an int exactly
    when it is integral."""
    for v in p.terms.values():
        assert v != 0
        assert type(v) in (int, Fraction), p.terms
        assert (type(v) is int) == (Fraction(v).denominator == 1), p.terms


class TestMPoly:
    @settings(max_examples=60, deadline=None)
    @given(npolys, npolys, npolys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_division_inverts_multiplication(self, data):
        # both rings, small and large exponents, one-term divisors too
        vars = data.draw(rings)
        a = data.draw(wide_polys(vars))
        b = data.draw(st.one_of(wide_polys(vars), one_term_polys(vars)))
        if b.is_zero():
            return
        quo = (a * b).exact_div(b)
        assert quo == a
        assert_canonical(quo)

    def test_try_exact_div_detects_inexact(self):
        assert (N + one).try_exact_div(N - q) is None
        assert (N * N - q * q).try_exact_div(N - q) == N + q

    def test_eval_qpower(self):
        p = (N - q) * (N + one)
        got = p.eval_qpower("N", 3)
        expected = (QPoly.term(3) - QPoly.term(1)) * (QPoly.term(3) + 1)
        assert got == expected

    def test_json_roundtrip(self):
        p = (N - q**2) * (N + 3)
        assert MPoly.from_json(p.to_json()) == p

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_text_roundtrip(self, data):
        """`to_text` loses nothing: what `guess --mode ansatz` and every
        counterexample print reads back as the same polynomial."""
        vars = data.draw(rings)
        p = data.draw(st.builds(lambda t: MPoly(vars, t), st.dictionaries(
            st.tuples(*[st.integers(0, 6)] * len(vars)), mixed, max_size=6)))
        assert MPoly.from_text(vars, p.to_text()) == p

    def test_text_roundtrip_of_an_ansatz_term(self):
        r = synthesize_conjecture("ansatz", 3, 12).terms[3].rational.strip_content()
        for p in (r.num, r.den):
            assert len(p.terms) > 1
            assert MPoly.from_text(NQ_VARS, p.to_text()) == p

    @settings(max_examples=200, deadline=None)
    @given(mixed_qpolys)
    def test_prints_a_qpoly_as_the_qpoly_does(self, p):
        """MPoly, QPoly and a one-term XQPoly coefficient share one printer."""
        assert MPoly.from_qpoly(p, NQ_VARS).to_text() == p.to_text()
        if len(p.c) == 1:
            assert XQPoly({0: p}).to_text() == p.to_text()


class TestProductAndDivision:
    """The product and the exact division against the schoolbook references
    on exponent tuples."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_product_matches_reference(self, data):
        vars = data.draw(rings)
        a = data.draw(st.one_of(wide_polys(vars), one_term_polys(vars)))
        b = data.draw(st.one_of(wide_polys(vars), one_term_polys(vars)))
        got = a * b
        assert got.terms == ref_mul(a, b)
        assert_canonical(got)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_division_matches_reference(self, data):
        # a*b + c runs several steps before an inexact division fails
        vars = data.draw(rings)
        a = data.draw(wide_polys(vars, 3))
        b = data.draw(st.one_of(wide_polys(vars, 3), one_term_polys(vars)))
        c = data.draw(wide_polys(vars, 2))
        if b.is_zero():
            return
        dividend = a * b + c
        got = dividend.try_exact_div(b)
        want = ref_try_exact_div(dividend, b)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.terms == want
            assert_canonical(got)

    def test_product_never_packs(self, monkeypatch):
        # a product of 10 x 10 terms on exponent tuples takes no Kronecker path
        from qetude import poly

        def refuse(a, b):
            raise AssertionError("an MPoly product reached _packed_convolve")

        monkeypatch.setattr(poly, "_packed_convolve", refuse)
        a = MPoly(CERT_VARS, {(i, 1, 0, i % 3): i + 1 for i in range(10)})
        b = MPoly(CERT_VARS, {(0, i, 2, 1): (-1) ** i * (i + 1) for i in range(10)})
        assert (a * b).terms == ref_mul(a, b)

    def test_zero_operands(self):
        zero = MPoly.zero(CERT_VARS)
        p = MPoly(CERT_VARS, {(1, 256, 0, 3): 2, (0, 0, 65536, 0): Fraction(1, 3)})
        assert (p * zero).is_zero() and (zero * p).is_zero()
        assert (zero * zero).is_zero()
        assert zero.try_exact_div(p) == zero
        assert zero.try_exact_div(MPoly.var(CERT_VARS, "X")) == zero
        with pytest.raises(ZeroDivisionError):
            p.try_exact_div(zero)
        with pytest.raises(ZeroDivisionError):
            N.try_exact_div(MPoly.zero(NQ_VARS))

    def test_one_term_operands(self):
        p = MPoly(CERT_VARS, {(1, 2, 0, 3): 2, (0, 0, 255, 0): Fraction(1, 3)})
        m = MPoly(CERT_VARS, {(0, 1, 2, 1): Fraction(-3, 2)})
        assert (p * m).terms == ref_mul(p, m) == (m * p).terms
        assert (p * m).try_exact_div(m) == p
        assert (p * m).try_exact_div(p) == m

    def test_early_exit_when_a_remainder_leaves_the_degree_box(self):
        # deg_q(divisor) > deg_q(dividend): refused before any reduction
        assert (N**3 + one).try_exact_div(N - q**5) is None
        # quotient box is N^0..2 q^0: the second step needs N q^5
        assert (N**3 + q**5).try_exact_div(N - q**5) is None
        assert ref_try_exact_div(N**3 + q**5, N - q**5) is None

    def test_degree_box_stops_the_reduction_at_once(self, monkeypatch):
        # the lead N^2 q^5 of the first remainder gives the quotient exponent
        # (1, 5), outside the box (2, 0): one quotient term, where the lead
        # test alone would make three before the lead q^15 is not divisible
        from qetude import multi

        real, quotients = multi._div_coef, []

        def spy(v, d):
            quotients.append(v)
            return real(v, d)

        monkeypatch.setattr(multi, "_div_coef", spy)
        assert (N**3 + q**5).try_exact_div(N - q**5) is None
        assert quotients == [1]

    def test_reference_refuses_a_quotient_outside_the_degree_box(self):
        # deg_q(divisor) = 65536 > 256 = deg_q(dividend); a reference that only
        # checks lead divisibility grows its remainder without end here
        dividend = N**65536 * q**255 - N**65536 * q**256
        divisor = 4 * q**65536 - 5 * N**29 * q**35 + 4 * N**12 * q**65535
        with time_limit(5):
            assert dividend.try_exact_div(divisor) is None
            assert ref_try_exact_div(dividend, divisor) is None

    def test_divisor_of_higher_degree_in_some_variable(self):
        assert (N**2 + q).try_exact_div(N**3 + q) is None
        assert (N * q**2 + one).try_exact_div(N + q**3) is None

    def test_leading_monomial_not_divisible(self):
        # the lead test catches the missing powers: N is not divisible by N*q,
        # and the constant left by -N*q / (2*N*q - 1) by nothing but 1
        with time_limit(5):
            assert (N + q**2).try_exact_div(N * q - one) is None
            assert (-N * q).try_exact_div(2 * N * q - one) is None
            assert (N**2 + N * q**3).try_exact_div(N * q - one) is None
            p = MPoly(CERT_VARS, {(1, 0, 0, 1): 1})
            assert p.try_exact_div(p * MPoly.var(CERT_VARS, "X") - 1) is None
        assert ref_try_exact_div(-N * q, 2 * N * q - one) is None

    def test_one_term_divisor_that_does_not_divide(self):
        assert (N * q).try_exact_div(N**2) is None
        assert (N * q + q**2).try_exact_div(q**2) is None
        assert (N * q**2 + 3 * q**2).try_exact_div(2 * q**2).terms == \
            {(1, 0): Fraction(1, 2), (0, 0): Fraction(3, 2)}

    @pytest.mark.parametrize("vars", [NQ_VARS, CERT_VARS])
    def test_pow_equals_repeated_product(self, vars):
        p = MPoly.var(vars, "q") - 2 * MPoly.var(vars, vars[-1]) + Fraction(1, 2)
        want = MPoly.one(vars)
        for k in range(7):
            assert p**k == want
            want = want * p


class TestRepresentation:
    @settings(max_examples=80, deadline=None)
    @given(mixed_npolys, mixed_npolys)
    def test_results_are_canonical(self, a, b):
        results = [a + b, a - b, -a, a * b, a.scale_var("N", "q"),
                   a.scale_var("q", "N", 2), MPoly.from_json(a.to_json())]
        results += a.coeffs_in("N").values()
        if not b.is_zero():
            quo = (a * b).try_exact_div(b)
            assert quo == a
            results.append(quo)
            inexact = a.try_exact_div(b)
            if inexact is not None:
                assert inexact * b == a
                results.append(inexact)
            if not a.is_zero():
                r = RationalFunc(a, b)
                s = r.strip_content()
                assert rational_equal(s, r)
                assert s.den.terms[max(s.den.terms)] == 1
                results += [s.num, s.den]
        for p in results:
            assert_canonical(p)

    def test_strip_content_divides_as_fractions(self):
        # all-int polynomials with lead 2: int / int would give floats
        s = RationalFunc(N + 3 * one, 2 * q).strip_content()
        assert s.num.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(3, 2)}
        assert all(type(v) is Fraction for v in s.num.terms.values())
        assert s.den.terms == {(0, 1): 1} and type(s.den.terms[(0, 1)]) is int
        assert s.to_text() == "(3/2 + 1/2*N) / (q)"

    def test_strip_content_of_zero(self):
        assert RationalFunc(MPoly.zero(NQ_VARS), 2 * q).strip_content().to_text() == "(0) / (1)"

    def test_try_exact_div_falls_back_to_fractions(self):
        quo = (N * N - q * q).try_exact_div(2 * N - 2 * q)
        assert quo.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
        quo = (2 * N * N - 2 * q * q).try_exact_div(N - q)
        assert quo.terms == {(1, 0): 2, (0, 1): 2}
        assert all(type(v) is int for v in quo.terms.values())

    def test_integral_fractions_become_ints(self):
        p = MPoly(NQ_VARS, {(1, 0): Fraction(4, 2), (0, 0): Fraction(1, 2)}) \
            + MPoly(NQ_VARS, {(0, 0): Fraction(1, 2)})
        assert p.terms == {(1, 0): 2, (0, 0): 1}
        assert all(type(v) is int for v in p.terms.values())
        assert type(MPoly.zero(NQ_VARS).constant()) is int

    def test_int_and_fraction_coefficients_hash_alike(self):
        a = MPoly(NQ_VARS, {(1, 0): 2, (0, 1): Fraction(1, 2)})
        b = MPoly(NQ_VARS, {(1, 0): Fraction(6, 3)}) \
            + MPoly(NQ_VARS, {(0, 1): Fraction(1, 2)})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("p,scalar", [
        (MPoly.one(NQ_VARS), 1),
        (MPoly.zero(NQ_VARS), 0),
        (MPoly.const(NQ_VARS, Fraction(1, 2)), Fraction(1, 2)),
    ])
    def test_constant_hashes_as_its_scalar(self, p, scalar):
        assert p == scalar and hash(p) == hash(scalar)
        assert len({p, scalar}) == 1

    def test_terms_are_read_only(self):
        p = N + q
        with pytest.raises(TypeError):
            p.terms[(1, 0)] = 1
        with pytest.raises(TypeError):
            p.terms[(0, 0)] = 1

    @pytest.mark.parametrize("call, error, match", [
        (lambda: N + MPoly.var(CERT_VARS, "q"), ValueError, "variable set mismatch"),
        (lambda: N.to_qpoly(), ValueError, "more than q"),
        (lambda: MPoly.var(CERT_VARS, "X").eval_qpower("N", 1), ValueError, "extra"),
        (lambda: N.eval_qpower("N", -1), ValueError, "negative exponent"),
        (lambda: N.scale_var("N", "q", -1), ValueError, "negative exponent"),
        (lambda: rational_equal(1, 2), TypeError, "RationalFunc or MPoly"),
        (lambda: interpolate_in_N([(QPoly.term(1), QPoly.one())], -1), ValueError,
         "nonnegative"),
    ], ids=["var-mismatch", "to-qpoly-of-N", "eval-with-X", "eval-negative-power",
            "scale-negative-power", "rational-equal-ints", "interpolate-degree-minus-1"])
    def test_guards_reject(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    @pytest.mark.parametrize("s", [3, Fraction(-2, 3)], ids=["int", "Fraction"])
    def test_scalar_minus_value_negates_the_difference(self, s):
        p = N * N + Fraction(1, 2) * q + one
        assert s - p == -(p - s) == MPoly(NQ_VARS, {(2, 0): -1, (0, 1): Fraction(-1, 2),
                                                   (0, 0): s - 1})
        r = RationalFunc(p, N + q)
        assert rational_equal(s - r, -(r - s))
        assert rational_equal(s - r, RationalFunc(s * N + s * q + -p, N + q))

    def test_difference_over_other_variables_raises(self):
        with pytest.raises(ValueError, match="variable set mismatch"):
            N - MPoly.var(CERT_VARS, "q")

    def test_constructor_checks(self):
        with pytest.raises(TypeError):
            MPoly(NQ_VARS, {(0, 0): 0.5})
        with pytest.raises(ValueError):
            MPoly(NQ_VARS, {(0, 0, 0): 1})
        with pytest.raises(ValueError):
            MPoly(NQ_VARS, {(-1, 0): 1})
        assert MPoly(NQ_VARS, (N + q).terms) == N + q


class TestRationalEqual:
    def test_identical_after_cross_multiplication(self):
        a = RationalFunc(N - q, q - q**2)
        b = RationalFunc(N - q, q * (one - q))
        assert rational_equal(a, b)

    def test_one_vs_quotient_of_equal_polys(self):
        assert rational_equal(RationalFunc(one), RationalFunc(one - q, one - q))

    def test_distinct_functions_differ(self):
        a = RationalFunc(N - q, q * (one - q))
        b = RationalFunc(N - q**2, q * (one - q))
        assert not rational_equal(a, b)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunc(one, MPoly.zero(NQ_VARS))


class TestInterpolation:
    def test_degree_one_coefficient_fit(self):
        pts = [(QPoly.term(2), -QPoly.one()), (QPoly.term(3), QPoly({0: -1, 1: -1}))]
        r = interpolate_in_N(pts, 1)
        assert rational_equal(r, RationalFunc(N - q, q * (one - q)))

    def test_constant_fit(self):
        r = interpolate_in_N([(QPoly.term(1), QPoly({0: 5}))], 0)
        assert rational_equal(r, RationalFunc(MPoly.const(NQ_VARS, 5)))

    def test_degree_two_fit_matches_display(self):
        pts = [
            (QPoly.term(4), QPoly({2: 1})),
            (QPoly.term(5), QPoly({2: 1, 3: 1, 4: 1})),
            (QPoly.term(6), QPoly({2: 1, 3: 1, 4: 2, 5: 1, 6: 1})),
        ]
        r = interpolate_in_N(pts, 2)
        expected = RationalFunc((N - q**2) * (N - q**3),
                                q**3 * (one + q) * (one - q) ** 2)
        assert rational_equal(r, expected)

    def test_nodes_reproduced_exactly(self):
        pts = [
            (QPoly.term(4), QPoly({2: 1})),
            (QPoly.term(5), QPoly({2: 1, 3: 1, 4: 1})),
            (QPoly.term(6), QPoly({2: 1, 3: 1, 4: 2, 5: 1, 6: 1})),
        ]
        r = interpolate_in_N(pts, 2)
        for n, (_, value) in zip([4, 5, 6], pts):
            assert rational_agrees_at_qn(r, n, value)
            assert eval_rational_at_qn(r, n) == value

    def test_duplicate_nodes_rejected(self):
        pts = [(QPoly.term(1), QPoly.one()), (QPoly.term(1), QPoly.one())]
        with pytest.raises(ValueError):
            interpolate_in_N(pts, 1)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            interpolate_in_N([(QPoly.term(1), QPoly.one())], 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda d: st.tuples(
        st.lists(st.one_of(st.builds(QPoly.term, st.integers(0, 8)), int_qpolys),
                 min_size=d, max_size=d, unique=True),
        st.integers(-3, 3),
        st.lists(st.one_of(mixed, mixed_qpolys), min_size=d + 1, max_size=d + 1))))
    def test_equals_the_left_fold_of_lagrange_terms(self, drawn):
        powers_and_others, c, values = drawn
        # one node that is not a power of q, and differs from the others
        nodes = powers_and_others + [QPoly({0: c, 9: 1})]
        degree = len(nodes) - 1
        # the reference: the sum of the Lagrange terms, one RationalFunc
        # addition at a time, each term expanded in the (N, q) ring
        total = RationalFunc.const(NQ_VARS, 0)
        for i, (node_i, value_i) in enumerate(zip(nodes, values)):
            num = MPoly.from_qpoly(QPoly({0: 1}) * value_i, NQ_VARS)
            den = MPoly.one(NQ_VARS)
            for j, node_j in enumerate(nodes):
                if j != i:
                    num = num * (N - MPoly.from_qpoly(node_j, NQ_VARS))
                    den = den * MPoly.from_qpoly(node_i - node_j, NQ_VARS)
            total = total + RationalFunc(num, den)
        got = interpolate_in_N(list(zip(nodes, values)), degree)
        assert dict(got.num.terms) == dict(total.num.terms)
        assert dict(got.den.terms) == dict(total.den.terms)


class TestTrialDivision:
    def test_single_root(self):
        r = RationalFunc(N - q, q * (one - q))
        roots, rest = trial_divide_numerator(r, 4)
        assert roots == [1]
        assert rational_equal(rest, RationalFunc(one, q * (one - q)))

    def test_constant_has_no_roots(self):
        roots, rest = trial_divide_numerator(RationalFunc(one), 5)
        assert roots == []
        assert rational_equal(rest, RationalFunc(one))

    def test_zero_numerator_has_no_roots(self):
        # zero has no coefficients in N to divide, and comes back as it is
        r = RationalFunc(MPoly.zero(NQ_VARS), q)
        roots, rest = trial_divide_numerator(r, 4)
        assert roots == [] and rest is r

    def test_two_roots(self):
        r = RationalFunc((N - q**2) * (N - q**3),
                         q**3 * (one + q) * (one - q) ** 2)
        roots, rest = trial_divide_numerator(r, 6)
        assert roots == [2, 3]
        assert rational_equal(rest, RationalFunc(one, q**3 * (one + q) * (one - q) ** 2))

    @staticmethod
    def unscreened_roots(r, j_max):
        """Trial division by every N - q^j, with no factor-theorem screen."""
        num, roots, progress = r.num, [], True
        while progress:
            progress = False
            for j in range(j_max + 1):
                quot = num.try_exact_div(N - q**j)
                if quot is not None:
                    num, progress = quot, True
                    roots.append(j)
        return sorted(roots), num

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 4)), mixed,
                           min_size=1, max_size=5),
           st.lists(st.integers(0, 5), max_size=3))
    def test_synthetic_division_matches_trial_division(self, terms, planted):
        base = MPoly(NQ_VARS, terms)
        if base.is_zero():
            return
        num = base
        for j in planted:
            num = num * (N - q**j)
        r = RationalFunc(num, one - q)
        roots, rest = trial_divide_numerator(r, 6)
        assert (roots, rest.num) == self.unscreened_roots(r, 6)
        assert rest.den is r.den
        assert_canonical(rest.num)
        for j in planted:
            assert roots.count(j) >= planted.count(j)

    @pytest.mark.parametrize("a", range(1, 9))
    def test_screen_keeps_the_roots_of_each_coefficient(self, a):
        r = coefficient_in_N(a)
        roots, rest = trial_divide_numerator(r, 2 * a + 2)
        assert roots == list(range(a, 2 * a))
        assert (roots, rest.num) == self.unscreened_roots(r, 2 * a + 2)

    def test_screen_keeps_a_repeated_root(self):
        r = RationalFunc((N - q**2) ** 2 * (N - q**5) * (N + q), one - q)
        roots, rest = trial_divide_numerator(r, 6)
        assert roots == [2, 2, 5]
        assert rest.num == N + q
        assert (roots, rest.num) == self.unscreened_roots(r, 6)

    def test_screen_finds_no_root_where_there_is_none(self):
        r = RationalFunc(N**2 + q)
        roots, rest = trial_divide_numerator(r, 8)
        assert roots == [] and rest.num == N**2 + q
        assert self.unscreened_roots(r, 8) == ([], N**2 + q)

    def test_remultiplication_roundtrip(self):
        r = RationalFunc(3 * (N - q) * (N - q) * (N - q**4), q**2 * (one - q))
        roots, rest = trial_divide_numerator(r, 6)
        assert roots == [1, 1, 4]
        back = rest
        for j in roots:
            back = back * (N - q**j)
        assert rational_equal(back, r)


def leibniz_det(m):
    """Determinant as the signed sum over permutations, the reference for
    the elimination."""
    total = MPoly.zero(NQ_VARS)
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = MPoly.one(NQ_VARS) * (-1) ** inversions
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


class TestBareiss:
    def test_row_swap_sign_matches_the_determinant(self):
        # the first pivot sits in row 1, so rows 0 and 1 swap exactly once
        zero = MPoly.zero(NQ_VARS)
        m = [[zero, N, q], [q, one, N], [N, q, zero]]
        cols, sign = _bareiss([row[:] for row in m], 3)
        assert (cols, sign) == ([0, 1, 2], -1)
        assert _bareiss_det(m) == N**3 + q**3 - q * N == leibniz_det(m)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(mixed_npolys, min_size=9, max_size=9))
    def test_determinant_matches_leibniz(self, entries):
        m = [entries[0:3], entries[3:6], entries[6:9]]
        expected = leibniz_det(m)
        if expected.is_zero():
            with pytest.raises(InternalConsistencyError):
                _bareiss_det(m)
        else:
            assert _bareiss_det(m) == expected
        assert m == [entries[0:3], entries[3:6], entries[6:9]]  # input untouched

    def test_rank_deficient_rows_skip_a_column(self):
        m = [[one, q, N], [N, q * N, q], [q, q * q, one]]
        cols, sign = _bareiss(m, 3)
        assert (cols, sign) == ([0, 2], 1)
        assert m[1][1].is_zero() and m[2] == [MPoly.zero(NQ_VARS)] * 3

    # step 0 divides by p_(-1) = 1, which is left out, so each matrix has a
    # third row and its first division comes at step 1 or later
    @pytest.mark.parametrize("solve, first", [
        # row 2 is eliminated at step 1: over p_0 = q
        (lambda: _bareiss([[q, N, one], [N, q, N], [one, N, q]], 3),
         ((q * q - N * N) * (q * q - one) - (q * N - N) * (q * N - N), q)),
        (lambda: _solve_linear(
            [[MPoly.from_text(CERT_VARS, t) for t in row]
             for row in (("q", "1", "0"), ("1", "N", "1"), ("N", "1", "q"))],
            [MPoly.one(CERT_VARS)] * 3), None),
        # step 0 leaves row 2 with a zero lead in column 1, so step 1 skips
        # it, and the first division is its deferred rescale by p_1 / p_0
        # when it becomes the third pivot: (q^2 - q) * p_1 over p_0 = q
        (lambda: _bareiss([[q, N, one], [N, q, N], [q, N, q]], 3),
         ((q * q - q) * (q * q - N * N), q)),
    ], ids=["kernel", "solve_linear", "deferred_rescale"])
    def test_an_inexact_division_raises(self, monkeypatch, solve, first):
        # fault injection: the first division reports itself inexact
        real, calls = MPoly.try_exact_div, []

        def fails_once(self, other):
            calls.append((self, other))
            return None if len(calls) == 1 else real(self, other)

        monkeypatch.setattr(MPoly, "try_exact_div", fails_once)
        with pytest.raises(ValueError, match="inexact multivariate division"):
            solve()
        assert len(calls) == 1
        assert first is None or calls[0] == first

    def test_det_oracle_makes_no_division(self, monkeypatch):
        # M(n) is tridiagonal: each row below a pivot is untouched until its
        # own step, so every division would be by p_(-1) = 1
        calls = []
        real = MPoly.try_exact_div
        monkeypatch.setattr(MPoly, "try_exact_div",
                            lambda self, other: calls.append(other) or real(self, other))
        assert det_oracle(6) == det_recurrence(6)
        assert calls == []

    @pytest.mark.parametrize("shape", ["banded", "rank_deficient", "tall_with_rhs"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_eager_elimination(self, shape, data):
        m, n_cols = data.draw(BAREISS_SHAPES[shape])
        deferred, eager = [row[:] for row in m], [row[:] for row in m]
        assert _bareiss(deferred, n_cols) == eager_bareiss(eager, n_cols)
        assert deferred == eager

    @pytest.mark.parametrize("cap", [3, 6])
    def test_matches_eager_elimination_on_the_certificate_systems(self, monkeypatch, cap):
        # all 16 systems, the ones the search screens out included
        monkeypatch.setattr(verifier, "_screen", lambda bases, cap: repeat(False))
        systems = list(_certificate_systems(lehmer_operator(), cap))
        assert len(systems) == 16
        for _, rows, rhs in systems:
            m = [row + [b] for row, b in zip(rows, rhs)]
            deferred, eager = [row[:] for row in m], [row[:] for row in m]
            assert _bareiss(deferred, len(rows[0])) == eager_bareiss(eager, len(rows[0]))
            assert deferred == eager

    @pytest.mark.parametrize("n", [2, 7, 14])
    def test_matches_eager_elimination_on_the_oracle_matrix(self, n):
        deferred, eager = build_matrix(n), build_matrix(n)
        assert _bareiss(deferred, n) == eager_bareiss(eager, n) == (list(range(n)), 1)
        assert deferred == eager


def eager_bareiss(rows, n_cols):
    """Textbook fraction-free elimination, the reference for `_bareiss`: at
    every step every row below the pivot becomes (pivot * row - lead * top)
    / previous pivot, whether its lead is zero or not."""
    zero = MPoly.zero(rows[0][0].vars)
    prev = MPoly.one(zero.vars)
    cols, sign = [], 1
    for c in range(n_cols):
        r = len(cols)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        for row in rows[r + 1:]:
            lead = row[c]
            for j in range(c + 1, len(row)):
                row[j] = (top[c] * row[j] - lead * top[j]).exact_div(prev)
            row[c] = zero
        prev = top[c]
        cols.append(c)
    return cols, sign


small_npolys = st.builds(lambda t: MPoly(NQ_VARS, t),
                         st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                         mixed, max_size=3))
# about half the entries forced to zero
sparse_npolys = st.one_of(st.just(MPoly.zero(NQ_VARS)), small_npolys)


@st.composite
def banded_matrices(draw):
    """Square, zero outside a band of half-width 0..2: tridiagonal at 1."""
    n, w = draw(st.integers(2, 5)), draw(st.integers(0, 2))
    zero = MPoly.zero(NQ_VARS)
    return [[draw(small_npolys) if abs(i - j) <= w else zero for j in range(n)]
            for i in range(n)], n


@st.composite
def rank_deficient_matrices(draw):
    """Square, one row a polynomial combination of two others, rows shuffled."""
    n = draw(st.integers(3, 5))
    rows = [[draw(sparse_npolys) for _ in range(n)] for _ in range(n - 1)]
    f, g = draw(small_npolys), draw(small_npolys)
    rows.append([f * x + g * y for x, y in zip(rows[0], rows[-1])])
    return [rows[i] for i in draw(st.permutations(range(n)))], n


@st.composite
def tall_systems(draw):
    """More rows than unknowns, and a right-hand side column carried along."""
    n = draw(st.integers(1, 4))
    return [[draw(sparse_npolys) for _ in range(n + 1)]
            for _ in range(draw(st.integers(n + 1, n + 3)))], n


BAREISS_SHAPES = {"banded": banded_matrices(), "rank_deficient": rank_deficient_matrices(),
                  "tall_with_rhs": tall_systems()}
