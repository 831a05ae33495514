import hashlib
from fractions import Fraction
from itertools import combinations, repeat

import pytest

from qetude import cli, closedform, verifier
from qetude.closedform import gaussian_poly, theorem2_value
from qetude.lehmer import det_recurrence
from qetude.multi import (_POINT, _PRIME, CERT_VARS, NQ_VARS, MPoly, RationalFunc,
                          rational_equal)
from qetude.poly import QPoly, XQPoly
from qetude.verifier import (BASIS, R1, R2, RA, Certificate, CheckResult, Recurrence,
                             check_certificate, check_certificate_down,
                             check_coefficient_identity,
                             check_recurrence_numeric, lehmer_operator,
                             literal_certificate, literal_certificate_report,
                             operator_side, solve_certificate,
                             _certificate_systems, _full_rank_mod_p, _solve_linear)

q = MPoly.var(CERT_VARS, "q")
X = MPoly.var(CERT_VARS, "X")
N = MPoly.var(CERT_VARS, "N")
A = MPoly.var(CERT_VARS, "A")
one = MPoly.one(CERT_VARS)
zero = MPoly.zero(CERT_VARS)

# (n, a) with 2 <= n <= 13 and 0 <= a <= n/2
SUMMAND_GRID = [(n, a) for n in range(2, 14) for a in range(n // 2 + 1)]


def at_powers(p, n, a):
    """A (q, X, N, A) polynomial at N = q^n, A = q^a, as an XQPoly."""
    cols = {}
    for (eq, ex, en, ea), v in p.terms.items():
        col = cols.setdefault(ex, {})
        k = eq + n * en + a * ea
        col[k] = col.get(k, 0) + v
    return XQPoly({x: QPoly(c) for x, c in cols.items()})


def summand(n, a):
    """F(n, a) = (-1)^a X^a q^(a(a-1)) GP(n-2a, a)."""
    f = gaussian_poly(n - 2 * a, a).shift(a * (a - 1))
    return XQPoly({a: -f if a % 2 else f})


def ratio_holds(r, n, a, shifted):
    """r at (N, A) = (q^n, q^a) equals shifted / F(n, a), by cross-multiplying."""
    den = at_powers(r.den, n, a)
    return not den.is_zero() and \
        at_powers(r.num, n, a) * summand(n, a) == den * shifted


def backward_telescoping_on_grid(rec, cert):
    """The backward orientation as written, before any substitution:

        c2 F(n+2,a) + c1 F(n+1,a) + c0 F(n,a) = G(n,a) - G(n,a-1)

    with G = cert F, at every (n, a) of SUMMAND_GRID with a >= 1 where the
    certificate's denominator vanishes at neither a nor a - 1; the two
    denominators are cleared by cross-multiplying."""
    num, den = cert.value.num, cert.value.den
    for n, a in SUMMAND_GRID:
        if a < 1:
            continue
        d0, d1 = at_powers(den, n, a), at_powers(den, n, a - 1)
        if d0.is_zero() or d1.is_zero():
            continue
        lhs = at_powers(rec.c2, n, a) * summand(n + 2, a) \
            + at_powers(rec.c1, n, a) * summand(n + 1, a) \
            + at_powers(rec.c0, n, a) * summand(n, a)
        rhs = at_powers(num, n, a) * d1 * summand(n, a) \
            - at_powers(num, n, a - 1) * d0 * summand(n, a - 1)
        if lhs * d0 * d1 != rhs:
            return False
    return True


def coefficient_identity_on_grid(a):
    """The coefficient identity as written, before any substitution:

        C_a(N) = C_a(N/q) - (N/q^2) * C_{a-1}(N/q^2)

    at N = q^n for 2 <= n <= 13, the q-only denominators cleared by
    cross-multiplying.  Reads C_a from `closedform`, where the verifier looks
    it up at each call, so a patched coefficient is the one evaluated."""
    c_a, c_prev = closedform.coefficient_in_N(a), closedform.coefficient_in_N(a - 1)

    def at(r, n):
        return r.num.eval_qpower("N", n), r.den.eval_qpower("N", n)
    for n in range(2, 14):
        (un, ud), (vn, vd), (wn, wd) = at(c_a, n), at(c_a, n - 1), at(c_prev, n - 2)
        if un * vd * wd != (vn * wd - QPoly.term(n - 2) * wn * vd) * ud:
            return False
    return True


def reference_systems(rec, degree_cap):
    """The certificate systems built one column at a time: column k is the
    polynomial A^k * keep - q^k * A^k * shift_part, split by powers of A, and
    a row is kept for every power of A that any column or the constant part
    has."""
    L = operator_side(rec)
    for size in range(len(BASIS) + 1):
        for subset in combinations(range(len(BASIS)), size):
            D = one
            for i in subset:
                D = D * BASIS[i]
            D_up = D.scale_var("A", "q")
            const_coeffs = (L.num * D * D_up * RA.den).coeffs_in("A")
            keep = L.den * D_up * RA.den
            shift_part = L.den * D * RA.num
            col_coeffs = [(A**k * keep - q**k * A**k * shift_part).coeffs_in("A")
                          for k in range(degree_cap + 1)]
            degrees = sorted(set(const_coeffs).union(*col_coeffs))
            rows = [[cc.get(d, zero) for cc in col_coeffs] for d in degrees]
            rhs = [-const_coeffs.get(d, zero) for d in degrees]
            yield D, rows, rhs


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

    @pytest.mark.parametrize("a", [0, 4, 30])
    def test_a_perturbation_at_any_x_degree_fails_at_its_n(self, a):
        res = check_recurrence_numeric(
            12, lambda n: det_recurrence(n) + XQPoly({a: QPoly.term(2)}) if n == 7
            else det_recurrence(n))
        assert not res and res.detail == 7

    def test_bad_initial_condition_detected(self):
        res = check_recurrence_numeric(5, lambda n: det_recurrence(n + 1))
        assert not res and "initial" in res.detail

    def test_bad_second_initial_condition_detected(self):
        res = check_recurrence_numeric(5, lambda n: det_recurrence(3 if n == 2 else n))
        assert not res and res.detail == "initial condition n=2"

    def test_requires_enough_terms(self):
        with pytest.raises(ValueError):
            check_recurrence_numeric(2, det_recurrence)


def residual_verdict(n_max, values):
    """The whole-value replay: the first n whose residual
    Q_n - Q_(n-1) + X q^(n-2) Q_(n-2) is not zero, or None."""
    for n in range(3, n_max + 1):
        residual = values[n] - values[n - 1] + values[n - 2].shift_q(n - 2).shift_x(1)
        if not residual.is_zero():
            return n
    return None


def perturbed(values, n, delta):
    """values, a function of n, with delta added at n."""
    return lambda m: values(m) + delta if m == n else values(m)


class TestNumericStreams:
    @pytest.mark.parametrize("values", [theorem2_value, det_recurrence],
                             ids=["closed form", "determinant stream"])
    def test_values_satisfy_recurrence_to_80(self, values):
        assert check_recurrence_numeric(80, values)

    def test_a_callable_is_mapped_over_1_to_n_max(self):
        called = []
        res = check_recurrence_numeric(6, lambda n: called.append(n) or det_recurrence(n))
        assert res and called == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("delta", [XQPoly({1: QPoly.one()}), XQPoly({0: -QPoly.one()}),
                                       XQPoly({9: QPoly.term(3)}), XQPoly({2: QPoly.term(40)})])
    def test_a_perturbed_q7_fails_with_detail_7(self, delta):
        res = check_recurrence_numeric(12, perturbed(det_recurrence, 7, delta))
        assert not res and res.detail == 7

    def test_a_perturbed_last_value_fails(self):
        values = perturbed(theorem2_value, 12, XQPoly({3: QPoly.term(30)}))
        res = check_recurrence_numeric(12, values)
        assert not res and res.detail == 12

    @pytest.mark.parametrize("n,a,e", [(3, 1, 0), (5, 0, 1), (8, 2, 2), (8, 2, 20),
                                       (9, 4, 12), (10, 1, 3), (11, 6, 0)])
    def test_verdict_matches_the_whole_value_residual(self, n, a, e):
        values = [None, *map(det_recurrence, range(1, 12))]
        values[n] = values[n] + XQPoly({a: QPoly.term(e, -1)})
        res = check_recurrence_numeric(11, values.__getitem__)
        assert res.detail == residual_verdict(11, values) == n

    def test_initial_conditions_in_a_stream(self):
        values = perturbed(det_recurrence, 1, XQPoly({1: QPoly.one()}))
        res = check_recurrence_numeric(5, values)
        assert not res and res.detail == "initial condition n=1"
        values = perturbed(det_recurrence, 2, XQPoly({0: QPoly.one()}))
        res = check_recurrence_numeric(5, values)
        assert not res and res.detail == "initial condition n=2"


class TestCoefficientIdentity:
    @pytest.mark.parametrize("a", range(1, 9))
    def test_holds(self, a):
        assert check_coefficient_identity(a)

    def test_rejects_a0(self):
        with pytest.raises(ValueError):
            check_coefficient_identity(0)

    @staticmethod
    def perturb_c3(monkeypatch, part="num", factor=None):
        """Multiply C_3's numerator or denominator by factor, 1 + q if None."""
        real = closedform.coefficient_in_N
        qn = MPoly.var(NQ_VARS, "q")
        factor = factor or MPoly.one(NQ_VARS) + qn

        def perturbed(a):
            c = real(a)
            if a != 3:
                return c
            if part == "num":
                return RationalFunc(c.num * factor, c.den)
            return RationalFunc(c.num, c.den * factor)

        monkeypatch.setattr(closedform, "coefficient_in_N", perturbed)

    def test_rejects_a_perturbed_coefficient(self, monkeypatch):
        self.perturb_c3(monkeypatch)
        res = check_coefficient_identity(3)
        assert not res and res.detail
        assert res.to_json()["counterexample"] == res.detail
        assert check_coefficient_identity(1) and check_coefficient_identity(2)

    @pytest.mark.parametrize("factor, inexact", [
        # 1 + q divides d_4 / d_3 = q^4 (1 - q^4), so both divisions stay
        # exact and each identity is tested over C_a's own denominator
        ("1+q", False),
        # 1 + q + q^2 does not divide q^4 (1 - q^4), so at a = 4 the division
        # by C_3's denominator is inexact and the fractions are cross-multiplied
        ("1+q+q^2", True),
    ])
    def test_perturbed_denominator_verdict_matches_the_grid(self, monkeypatch, factor,
                                                             inexact):
        self.perturb_c3(monkeypatch, "den", MPoly.from_qpoly(QPoly.from_text(factor),
                                                               NQ_VARS))
        real, quotients = MPoly.try_exact_div, []

        def spy(self, other):
            quotients.append(real(self, other))
            return quotients[-1]

        monkeypatch.setattr(MPoly, "try_exact_div", spy)
        for a in (3, 4):
            res = check_coefficient_identity(a)
            assert not res and res.detail
            assert not coefficient_identity_on_grid(a)
        assert (None in quotients) == inexact
        assert check_coefficient_identity(2) and check_coefficient_identity(5)

    def test_a_denominator_in_n_is_cross_multiplied(self, monkeypatch):
        # C_3 times (1 + N) / (1 + N) is the same function, so every verdict
        # stays PASS; over the unscaled denominator d_3 (1 + N) the a = 3
        # identity would read nonzero, since N -> qN and N -> q^2 N move it
        real = closedform.coefficient_in_N
        factor = MPoly.one(NQ_VARS) + MPoly.var(NQ_VARS, "N")

        def rescaled(a):
            c = real(a)
            return RationalFunc(c.num * factor, c.den * factor) if a == 3 else c

        monkeypatch.setattr(closedform, "coefficient_in_N", rescaled)
        for a in (3, 4):
            assert check_coefficient_identity(a)
            assert coefficient_identity_on_grid(a)

    @pytest.mark.parametrize("a_max", [1, 2, 10])
    def test_the_stream_equals_the_one_shot_checks(self, a_max):
        stream = list(verifier._coefficient_identities(a_max))
        one_shot = [check_coefficient_identity(a) for a in range(1, a_max + 1)]
        assert [(r.ok, r.name) for r in stream] == [(r.ok, r.name) for r in one_shot]

    @pytest.mark.parametrize("argv", [["verify", "--coefficient", "10"], ["verify"]])
    def test_verify_builds_each_coefficient_once(self, monkeypatch, capsys, argv):
        real, built = closedform.coefficient_in_N, []

        def counted(a):
            built.append(a)
            return real(a)

        monkeypatch.setattr(closedform, "coefficient_in_N", counted)
        assert cli.run(argv) == 0
        a_max = 10 if len(argv) > 1 else 8
        assert sorted(built) == list(range(a_max + 1))
        assert f"PASS  coefficient-identity a={a_max}" in capsys.readouterr().out

    @pytest.mark.parametrize("a", range(1, 7))
    def test_verdict_matches_the_unshifted_identity_on_a_grid(self, a):
        assert coefficient_identity_on_grid(a)
        assert check_coefficient_identity(a)

    def test_perturbed_verdict_matches_the_grid(self, monkeypatch):
        self.perturb_c3(monkeypatch)
        assert not coefficient_identity_on_grid(3)
        assert not check_coefficient_identity(3)


class TestOperator:
    def test_lehmer_operator_coefficients(self):
        rec = lehmer_operator()
        assert rec.c2 == one and rec.c1 == -one and rec.c0 == X * N

    def test_leading_coefficient_must_be_nonzero(self):
        with pytest.raises(ValueError):
            Recurrence(X * N, -one, MPoly.zero(CERT_VARS))

    def test_coefficients_must_live_in_the_certificate_ring(self):
        c = MPoly.one(NQ_VARS)
        with pytest.raises(ValueError, match="ring"):
            Recurrence(c, -c, c)

    def test_coefficients_must_avoid_a(self):
        A = MPoly.var(CERT_VARS, "A")
        with pytest.raises(ValueError):
            Recurrence(A, -one, one)

    def test_operator_and_certificate_are_frozen_values(self):
        rec = lehmer_operator()
        assert rec == lehmer_operator() and hash(rec) == hash(lehmer_operator())
        assert rec != Recurrence(*(c * 2 for c in rec))
        with pytest.raises(AttributeError):
            rec.c0 = one
        with pytest.raises(ValueError, match="leading"):
            rec._replace(c2=MPoly.zero(CERT_VARS))
        with pytest.raises(ValueError, match="ring"):
            literal_certificate()._replace(value=RationalFunc.const(NQ_VARS, 1))

    def test_operator_side_vanishes_nowhere_for_lehmer(self):
        # the summand alone does not satisfy the recurrence; telescoping is
        # genuinely needed
        assert not operator_side(lehmer_operator()).is_zero()


class TestCertificates:
    def test_solved_certificate_verifies(self):
        rec = lehmer_operator()
        cert = solve_certificate(rec, 4)
        assert check_certificate(rec, cert)

    @pytest.mark.parametrize("cap, digest", [
        (4, "d3caf36a291c2a49ce2e9c9956d873a432cf1f571e7b77135165dd75119aa40e"),
        (6, "f378ac5370ce0d8524117eb3fe709a360363bd4619601fe89ad5960f91a0bd1d"),
    ])
    def test_solved_certificate_text_is_pinned(self, cap, digest):
        # `verify --solve-certificate` prints only PASS, so this pins what the
        # products and divisions of the solve compute
        text = solve_certificate(lehmer_operator(), cap).value.to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("cap", [0, -1])
    def test_degree_cap_must_be_positive(self, cap):
        with pytest.raises(ValueError, match="degree cap must be positive"):
            solve_certificate(lehmer_operator(), cap)

    def test_check_is_linear_in_the_operator(self):
        rec = lehmer_operator()
        cert = solve_certificate(rec, 4)
        scaled_cert = Certificate(cert.value * RationalFunc.const(CERT_VARS, 7))
        assert check_certificate(Recurrence(*(c * 7 for c in rec)), scaled_cert)

    @pytest.mark.parametrize("n,a", SUMMAND_GRID)
    def test_shift_ratios_match_the_summand(self, n, a):
        assert ratio_holds(R1, n, a, summand(n + 1, a))
        assert ratio_holds(R2, n, a, summand(n + 2, a))
        assert ratio_holds(RA, n, a, summand(n, a + 1))

    def test_perturbed_a_ratio_fails_on_the_grid(self):
        # negative control: RA with its factor q A^2 - N written A^2 - q N
        q = MPoly.var(CERT_VARS, "q")
        A = MPoly.var(CERT_VARS, "A")
        bad = RationalFunc(-X * (A * A - N) * (A * A - q * N), RA.den)
        assert not all(ratio_holds(bad, n, a, summand(n, a + 1))
                       for n, a in SUMMAND_GRID)

    def test_shift_ratios_are_consistent(self):
        # R2 must equal R1 composed with the N -> qN shift of R1
        assert (R1.scale_var("N", "q") * R1 - R2).is_zero()


class TestSolveLinear:
    def test_back_substitution_uses_an_off_diagonal_term(self):
        # x0 + q x1 = X + q and N x0 + X x1 = N X + X, so (x0, x1) = (X, 1)
        sol = _solve_linear([[one, q], [N, X]], [X + q, N * X + X])
        assert rational_equal(sol[0], X) and rational_equal(sol[1], one)

    def test_free_variable_of_a_consistent_rank_deficient_system_is_0(self):
        sol = _solve_linear([[one, q], [N, q * N]], [X, X * N])
        assert rational_equal(sol[0], X) and sol[1].is_zero()

    def test_inconsistent_system_has_no_solution(self):
        assert _solve_linear([[one, q], [N, q * N]], [X, X]) is None

    def test_solution_satisfies_a_system_that_needs_a_row_swap(self):
        rows = [[MPoly.zero(CERT_VARS), q, N], [X, one, q], [N, X, one]]
        rhs = [one, N, X]
        sol = _solve_linear(rows, rhs)
        for row, b in zip(rows, rhs):
            lhs = RationalFunc.const(CERT_VARS, 0)
            for a, x in zip(row, sol):
                lhs = lhs + a * x
            assert rational_equal(lhs, b)


def screen_off(monkeypatch):
    """Make `_certificate_systems` build every one of its 16 systems."""
    monkeypatch.setattr(verifier, "_screen", lambda bases, cap: repeat(False))


def rank_at_point(rows, rhs):
    """Whether [rows | rhs], a matrix of MPolys in CERT_VARS, has full column
    rank once each entry is evaluated at _POINT modulo _PRIME; False for a
    coefficient that is not an int.  Entry by entry, from the exact system,
    independently of the screen's values in A."""
    mat = []
    for row, b in zip(rows, rhs):
        vals = []
        for p in row + [b]:
            if any(type(v) is not int for v in p.terms.values()):
                return False
            vals.append(sum(v * pow(_POINT[0], i, _PRIME) * pow(_POINT[1], j, _PRIME)
                            * pow(_POINT[2], k, _PRIME) * pow(_POINT[3], a, _PRIME)
                            for (i, j, k, a), v in p.terms.items()) % _PRIME)
        mat.append(vals)
    return _full_rank_mod_p(mat)


def screen_disagreements(rec, caps, monkeypatch):
    """(cap, subset index) wherever `verifier._screen` says otherwise than
    the rank of the exact system at the point."""
    verdicts = {cap: list(verifier._screen(verifier._bases(rec), cap)) for cap in caps}
    screen_off(monkeypatch)
    return [(cap, i) for cap in caps
            for i, (_, rows, rhs) in enumerate(_certificate_systems(rec, cap))
            if verdicts[cap][i] != rank_at_point(rows, rhs)]


class TestCertificateSystems:
    @pytest.mark.parametrize("cap", range(1, 7))
    def test_systems_match_the_column_by_column_reference(self, monkeypatch, cap):
        rec = lehmer_operator()
        verdicts = list(verifier._screen(verifier._bases(rec), cap))
        assert list(_certificate_systems(rec, cap)) == [
            system for system, rejected in zip(reference_systems(rec, cap), verdicts)
            if not rejected]
        screen_off(monkeypatch)
        built = list(_certificate_systems(rec, cap))
        assert len(built) == 16
        assert built == list(reference_systems(rec, cap))

    def test_a_builder_that_keeps_an_all_zero_row_fails_the_reference(self, monkeypatch):
        # the mutant runs one power of A past the top and keeps that row
        rec = lehmer_operator()
        screen_off(monkeypatch)

        def keeps_a_zero_row(rec, cap):
            for D, rows, rhs in _certificate_systems(rec, cap):
                yield D, rows + [[zero] * (cap + 1)], rhs + [zero]
        assert list(keeps_a_zero_row(rec, 3)) != list(reference_systems(rec, 3))


class TestRankScreen:
    """`_screen` rejects a certificate system, before it is built, when its
    values at the point modulo the prime have full column rank; the exact
    solve decides every system it lets through."""

    def test_verdicts_equal_the_rank_of_the_exact_systems(self, monkeypatch):
        assert screen_disagreements(lehmer_operator(), range(1, 7), monkeypatch) == []

    def test_it_skips_the_five_subsets_before_the_winner(self):
        for cap in (3, 4, 6):
            verdicts = list(verifier._screen(verifier._bases(lehmer_operator()), cap))
            assert verdicts[:6] == [True] * 5 + [False]

    def test_every_system_it_skips_the_exact_solve_rejects(self, monkeypatch):
        rec = lehmer_operator()
        verdicts = {cap: list(verifier._screen(verifier._bases(rec), cap))
                    for cap in range(1, 7)}
        screen_off(monkeypatch)
        for cap, skipped in verdicts.items():
            for (_, rows, rhs), skip in zip(_certificate_systems(rec, cap), skipped):
                if skip:
                    assert _solve_linear(rows, rhs) is None

    def test_the_search_builds_and_solves_one_exact_system_at_cap_6(self, monkeypatch):
        solved = []
        monkeypatch.setattr(verifier, "_solve_linear",
                            lambda rows, rhs: solved.append(rows) or _solve_linear(rows, rhs))
        solve_certificate(lehmer_operator(), 6)
        assert len(solved) == 1

    def test_off_for_a_fraction_coefficient(self):
        half = MPoly(CERT_VARS, {(0, 1, 1, 0): Fraction(1, 2)})
        bases = verifier._bases(Recurrence(c0=half, c1=-one, c2=one))
        assert verifier._in_A_mod_p(bases[0]) is None
        assert list(verifier._screen(bases, 3)) == [False] * 16
        # with the screen off, the exact solve decides such a system alone
        half_x = MPoly(CERT_VARS, {(0, 1, 0, 0): Fraction(1, 2)})
        assert _solve_linear([[one], [one]], [half_x, N]) is None

    def test_elimination_finds_full_and_deficient_column_rank(self):
        # x = X and x = N: [M | b] = [[1, X], [1, N]] has determinant N - X
        assert _full_rank_mod_p([[1, 5], [1, 7]])
        assert _solve_linear([[one], [one]], [X, N]) is None
        # x + y = 0 and x + y = 1: inconsistent, yet [M | b] has rank 2 < 3
        assert not _full_rank_mod_p([[1, 1, 0], [1, 1, 1]])
        assert _solve_linear([[one, one], [one, one]], [zero, one]) is None
        # fewer rows than columns
        assert not _full_rank_mod_p([[1, 2, 3]])

    def test_a_screen_that_skips_the_winner_is_caught(self, monkeypatch):
        real = verifier._screen

        def skips_the_winner(bases, cap):
            for i, rejected in enumerate(real(bases, cap)):
                yield rejected or i == 5
        monkeypatch.setattr(verifier, "_screen", skips_the_winner)
        with pytest.raises(ValueError, match="certificate not found"):
            solve_certificate(lehmer_operator(), 3)
        assert screen_disagreements(lehmer_operator(), [3], monkeypatch) == [(3, 5)]


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

    @pytest.mark.parametrize("factor, verdict", [(1, True), (2, False)])
    def test_down_verdict_matches_the_unshifted_identity_on_a_grid(self, factor,
                                                                   verdict):
        rec = lehmer_operator()
        cert = Certificate(RationalFunc(factor * X * N))
        assert bool(check_certificate_down(rec, cert)) is verdict
        assert backward_telescoping_on_grid(rec, cert) is verdict

    def test_down_check_rejects_a_scaled_literal(self):
        res = check_certificate_down(lehmer_operator(),
                                     Certificate(RationalFunc(2 * X * N)))
        assert not res and res.detail


class TestCheckResult:
    def test_defaults_and_rename(self):
        res = CheckResult(True)
        assert (res.name, res.detail) == ("", None)
        renamed = res._replace(name="renamed")
        assert renamed.to_json() == {"check": "renamed", "pass": True}
        assert res.name == ""

    @pytest.mark.parametrize("field", ["ok", "name", "detail", "extra"])
    def test_fields_cannot_be_assigned(self, field):
        res = CheckResult(False, "demo", 7)
        with pytest.raises(AttributeError):
            setattr(res, field, None)
        assert res == (False, "demo", 7) and not res

    def test_json_includes_counterexample_only_on_failure(self):
        ok = CheckResult(True, "demo")
        bad = CheckResult(False, "demo", 7)
        assert "counterexample" not in ok.to_json()
        assert bad.to_json()["counterexample"] == "7"
