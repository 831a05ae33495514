import pytest

from qetude.closedform import coefficient_in_N
from qetude.discovery import (CoefficientTable, GuessError, analyze_denominators,
                              andrews_guess, ansatz_guess, generate_table,
                              rebuild_xqpoly, synthesize_conjecture,
                              synthesize_from_table)
from qetude.lehmer import det_recurrence
from qetude.multi import rational_equal
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
        assert report.denominator_signs == [1, 1, 1]

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
        from qetude.multi import MPoly, NQ_VARS, RationalFunc

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

    def test_denominator_analysis_requires_ansatz(self):
        with pytest.raises(ValueError):
            analyze_denominators(synthesize_conjecture("andrews", 2, 12))
