from fractions import Fraction

import pytest

from qetude import discovery, multi
from qetude.closedform import coefficient_in_N, gaussian_poly
from qetude.discovery import (CoefficientTable, GuessError, analyze_denominators,
                              andrews_guess, ansatz_guess, generate_table,
                              rebuild_xqpoly, synthesize_conjecture,
                              synthesize_from_table)
from qetude.lehmer import det_recurrence
from qetude.multi import (NQ_VARS, MPoly, RationalFunc, interpolate_in_N,
                          rational_agrees_at_qn, rational_equal)
from qetude.poly import QPoly


def corrupt(table, n, a, poison):
    """Copy a table with c_a(n) replaced by c_a(n) + poison."""
    rows = list(table.rows)
    row = list(rows[n - 1])
    row[a] = row[a] + poison
    rows[n - 1] = tuple(row)
    return CoefficientTable(table.n_max, tuple(rows))


class TestTable:
    def test_rows_match_determinant(self):
        t = generate_table(9)
        assert t.coefficient(4, 2) == QPoly.term(2)
        assert t.coefficient(7, 1).to_text() == "-1 - q - q^2 - q^3 - q^4 - q^5"
        assert t.coefficient(3, 2).is_zero()
        assert t.row(6) == tuple(det_recurrence(6).coeff(a) for a in range(4))

    def test_bad_size(self):
        with pytest.raises(ValueError):
            generate_table(0)

    def test_records_are_frozen_values(self):
        t = generate_table(9)
        assert t == generate_table(9) and hash(t) == hash(generate_table(9))
        term = andrews_guess(t, 1)
        assert term == andrews_guess(t, 1) and hash(term) == hash(andrews_guess(t, 1))
        assert term.rational is None
        for record, field in [(t, "n_max"), (term, "sign"), (term.gaussian, "n_param")]:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)


class TestAndrewsGuess:
    def test_a1(self):
        t = generate_table(10)
        g = andrews_guess(t, 1)
        assert (g.sign, g.q_shift) == (-1, 0)
        assert (g.gaussian.m_offset, g.gaussian.n_param) == (-2, 1)

    def test_a2(self):
        g = andrews_guess(generate_table(12), 2)
        assert (g.sign, g.q_shift, g.gaussian.m_offset) == (1, 2, -4)

    def test_a4(self):
        g = andrews_guess(generate_table(16), 4)
        assert (g.sign, g.q_shift, g.gaussian.m_offset) == (1, 12, -8)
        assert g.predict(10) == det_recurrence(10).coeff(4)

    def test_short_table_rejected(self):
        with pytest.raises(ValueError):
            andrews_guess(generate_table(6), 2)

    def test_corrupted_data_raises_with_counterexample(self):
        t = corrupt(generate_table(12), 12, 2, QPoly.term(99))
        with pytest.raises(GuessError) as e:
            andrews_guess(t, 2)
        assert e.value.counterexample == 12

    @pytest.mark.parametrize("replace,message", [
        (lambda c: c - QPoly.term(99), "mixed-sign coefficient"),
        (lambda c: c + QPoly.term(3), "not a q-binomial"),
        # a q-binomial still, but one q-shift higher than the other rows
        (lambda c: c.shift(1), "parameters drift across n"),
    ], ids=["mixed-sign", "not-q-binomial", "drift"])
    def test_poisoned_fit_row_is_rejected(self, replace, message):
        t = generate_table(12)
        c = t.coefficient(8, 2)
        with pytest.raises(GuessError, match=message) as e:
            andrews_guess(corrupt(t, 8, 2, replace(c) - c), 2)
        assert e.value.counterexample == 8

    @pytest.mark.parametrize("guess", [andrews_guess, ansatz_guess])
    def test_constant_term_other_than_1_is_rejected(self, guess):
        t = corrupt(generate_table(12), 5, 0, QPoly.term(1))
        with pytest.raises(GuessError, match="constant coefficient is not 1") as e:
            guess(t, 0)
        assert e.value.counterexample == 5


@pytest.mark.parametrize("guess, a, match", [
    (andrews_guess, -1, "nonnegative"),
    (ansatz_guess, -1, "nonnegative"),
    (ansatz_guess, 2, "too short"),
    (ansatz_guess, 2, r"a = 2: the ansatz needs n_max >= 3a \+ 3 = 9"),
])
def test_guess_arguments_are_checked(guess, a, match):
    with pytest.raises(ValueError, match=match):
        guess(generate_table(6), a)


class TestAnsatzGuess:
    def test_a0_is_constant_one(self):
        g = ansatz_guess(generate_table(8), 0)
        assert g.predict(5) == QPoly.one()

    def test_a1_matches_formula(self):
        g = ansatz_guess(generate_table(10), 1)
        assert rational_equal(g.rational, coefficient_in_N(1))

    def test_a4_matches_formula(self):
        g = ansatz_guess(generate_table(18), 4)
        assert rational_equal(g.rational, coefficient_in_N(4))
        assert g.predict(11) == det_recurrence(11).coeff(4)

    def test_corrupted_data_fails(self):
        t = corrupt(generate_table(12), 12, 2, QPoly.term(99))
        with pytest.raises(GuessError):
            ansatz_guess(t, 2)


class TestSynthesis:
    def test_pipelines_agree(self):
        andrews = synthesize_conjecture("andrews", 4, 16)
        ansatz = synthesize_conjecture("ansatz", 4, 16)
        for n in (9, 13, 16):
            assert rebuild_xqpoly(andrews, n) == rebuild_xqpoly(ansatz, n)

    def test_rebuild_matches_determinant_fully(self):
        report = synthesize_conjecture("andrews", 5, 20)
        for n in range(1, 12):
            assert rebuild_xqpoly(report, n) == det_recurrence(n)

    def test_denominator_ratios(self):
        report = synthesize_conjecture("ansatz", 4, 16)
        assert [p.to_text() for p in report.denominator_ratios] == \
            ["q^2 - q^4", "q^3 - q^6", "q^4 - q^8"]
        assert report.denominator_signs == (1, 1, 1)

    @pytest.mark.parametrize("field", ["mode", "terms", "denominator_ratios", "extra"])
    def test_report_fields_cannot_be_assigned(self, field):
        report = synthesize_conjecture("ansatz", 2, 12)
        before = report.to_json()
        with pytest.raises(AttributeError):
            setattr(report, field, None)
        assert isinstance(report.terms, tuple) and report.to_json() == before

    def test_denominator_analysis_leaves_its_argument_unchanged(self):
        report = synthesize_conjecture("ansatz", 4, 16)
        bare = report._replace(denominator_ratios=None, denominator_signs=None)
        got = analyze_denominators(bare)
        assert bare.denominator_ratios is None and bare.denominator_signs is None
        assert got.terms is bare.terms
        assert got == report and got.to_json() == report.to_json()

    def test_json_schema(self):
        j = synthesize_conjecture("andrews", 2, 12).to_json()
        assert j["mode"] == "andrews"
        assert j["holdout_verified"] is True
        assert j["terms"][2]["gaussian"] == {"m_offset": -4, "n_param": 2}
        j = synthesize_conjecture("ansatz", 2, 12).to_json()
        assert "rational" in j["terms"][1]
        assert "denominator_ratios" in j

    def test_corrupted_table_fails_both_pipelines(self):
        base = generate_table(14)
        t = corrupt(base, 12, 2, QPoly.term(99))
        for mode in ("andrews", "ansatz"):
            with pytest.raises(GuessError):
                synthesize_from_table(mode, 3, t)

    def test_final_check_rejects_a_wrong_fit(self, monkeypatch):
        # a fit that the per-term guess would not produce: only the final
        # table check can catch it
        from qetude import discovery

        fit = discovery.ansatz_guess
        one_plus_q = MPoly(NQ_VARS, {(0, 0): 1, (0, 1): 1})

        def poisoned(table, a):
            t = fit(table, a)
            if a != 2:
                return t
            r = t.rational
            return t._replace(rational=RationalFunc(r.num * one_plus_q, r.den))

        monkeypatch.setattr(discovery, "ansatz_guess", poisoned)
        with pytest.raises(GuessError, match="conjecture does not reproduce the data"):
            synthesize_from_table("ansatz", 3, generate_table(14))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            synthesize_conjecture("magic", 2, 12)
        with pytest.raises(ValueError):
            synthesize_conjecture("andrews", 4, 10)

    @pytest.mark.parametrize("factor,message", [
        # a third numerator root at N = q^5
        (MPoly.var(NQ_VARS, "N") - MPoly.var(NQ_VARS, "q", 5), "roots"),
        # 1 + q + q^2 does not divide the true ratio q^2 (1 - q^2)
        (MPoly(NQ_VARS, {(0, 0): 1, (0, 1): 1, (0, 2): 1}), "inexact ratio"),
        # the ratio comes out exact but q times too small
        (MPoly.var(NQ_VARS, "q"), r"ratio QPoly\('q - q\^3'\)"),
        # q^2 - 1 turns the ratio all negative, and it is printed as computed
        (MPoly(NQ_VARS, {(0, 0): -1, (0, 2): 1}), r"ratio QPoly\('-q\^2'\)"),
    ], ids=["roots", "inexact", "wrong-ratio", "all-negative-ratio"])
    def test_denominator_analysis_rejects_a_poisoned_term(self, factor, message):
        report = synthesize_conjecture("ansatz", 3, 15)
        t = report.terms[2]
        report = report._replace(terms=(
            *report.terms[:2],
            t._replace(rational=RationalFunc(t.rational.num * factor, t.rational.den)),
            *report.terms[3:]))
        with pytest.raises(GuessError, match=message) as e:
            analyze_denominators(report)
        assert e.value.counterexample == 2

    def test_ansatz_pipeline_makes_no_multivariate_division(self, monkeypatch):
        # trial division divides by N - q^j synthetically, on coefficients in N
        real, calls = MPoly.try_exact_div, []

        def spy(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(MPoly, "try_exact_div", spy)
        report = synthesize_conjecture("ansatz", 5, 18)
        assert report.denominator_signs == (1,) * 4
        assert calls == []

    def test_denominator_analysis_requires_ansatz(self):
        with pytest.raises(ValueError):
            analyze_denominators(synthesize_conjecture("andrews", 2, 12))


def rogers_szego_table(n_max):
    """The table of a second continuant: h_0 = 1, h_1 = 1 + z and
    h_(n+1) = (1 + z) h_n - z (1 - q^n) h_(n-1), whose z^k coefficient is
    [n choose k]; row n keeps k <= n/2, as a determinant table does."""
    zero, one = QPoly.zero(), QPoly.one()

    def at(h, k):
        return h[k] if 0 <= k < len(h) else zero
    prev, cur, rows = [one], [one, one], [(one,)]
    for n in range(1, n_max):
        prev, cur = cur, [at(cur, k) + at(cur, k - 1) - (one - QPoly.term(n)) * at(prev, k - 1)
                          for k in range(n + 2)]
        rows.append(tuple(cur[: (n + 1) // 2 + 1]))
    return CoefficientTable(n_max, tuple(rows))


def ansatz_data(table, a):
    return [(n, QPoly.term(n), table.coefficient(n, a)) for n in range(2 * a, table.n_max + 1)]


def fitted(table, a_values):
    """The ansatz terms, each compared by its numerator and denominator."""
    return [(t.a, t.sign, t.q_shift, t.rational.num, t.rational.den)
            for t in (ansatz_guess(table, a) for a in a_values)]


# Lehmer's table and the Rogers-Szego one, with the a that each fits
SCREEN_TABLES = {"lehmer": (lambda: generate_table(27), range(1, 9)),
                 "rogers-szego": (lambda: rogers_szego_table(20), range(1, 6))}


class TestAnsatzScreen:
    """`_lowest_degree_mod_p` skips only degrees the exact check would
    reject, so the fits it leaves out change no term."""

    def test_the_rogers_szego_table_holds_q_binomials(self):
        table = rogers_szego_table(20)
        assert all(table.coefficient(n, k) == gaussian_poly(n - k, k)
                   for n in range(1, 21) for k in range(n // 2 + 1))

    @pytest.mark.parametrize("name", SCREEN_TABLES)
    def test_the_screen_changes_no_term(self, monkeypatch, name):
        build, a_values = SCREEN_TABLES[name]
        table = build()
        screened = fitted(table, a_values)
        monkeypatch.setattr(discovery, "_lowest_degree_mod_p", lambda data: 0)
        assert fitted(table, a_values) == screened

    @pytest.mark.parametrize("name", SCREEN_TABLES)
    def test_every_degree_it_rejects_misses_a_row_exactly(self, name):
        build, a_values = SCREEN_TABLES[name]
        table = build()
        for a in a_values:
            data = ansatz_data(table, a)
            for d in range(min(discovery._lowest_degree_mod_p(data), len(data) - 2)):
                fit = interpolate_in_N([(x, v) for _, x, v in data[: d + 1]], d)
                assert not all(rational_agrees_at_qn(fit, n, v) for n, _, v in data[d + 1:])

    def test_it_leaves_one_fit_per_term(self, monkeypatch):
        real, degrees = multi.interpolate_in_N, []
        monkeypatch.setattr(multi, "interpolate_in_N",
                            lambda points, degree: degrees.append(degree) or real(points, degree))
        synthesize_conjecture("ansatz", 5, 24)
        assert degrees == [1, 2, 3, 4, 5]

    def test_off_for_a_fraction_value(self):
        data = ansatz_data(generate_table(12), 2)
        assert discovery._lowest_degree_mod_p(data) == 2
        n, node, value = data[-1]
        assert discovery._lowest_degree_mod_p(
            data[:-1] + [(n, node, value + QPoly({0: Fraction(1, 2)}))]) == 0

    def test_a_screen_that_rejects_the_true_degree_is_caught(self, monkeypatch):
        table, a_values = generate_table(27), range(1, 9)
        real = discovery._lowest_degree_mod_p
        monkeypatch.setattr(discovery, "_lowest_degree_mod_p", lambda data: 0)
        reference = fitted(table, a_values)
        monkeypatch.setattr(discovery, "_lowest_degree_mod_p", lambda data: real(data) + 1)
        assert fitted(table, a_values) != reference
