"""End-to-end acceptance gate.

Ten criteria, each reported with its own PASS/FAIL line on stdout (run pytest
with -s or read the captured output).  Everything is exact arithmetic; there
is no tolerance anywhere.
"""

import time

from qetude.cli import cached_det
from qetude.closedform import theorem2_value
from qetude.discovery import (GuessError, generate_table, synthesize_conjecture,
                              synthesize_from_table)
from qetude.lehmer import det_oracle, det_recurrence
from qetude.multi import MPoly, NQ_VARS, RationalFunc, rational_equal
from qetude.poly import QPoly
from qetude.qseries import (rr_product_truncated, sequence_rpartitions,
                            substitute_x, theorem1_truncated)
from qetude.reproduce import SEQUENCE_TERMS, reproduce
from qetude.series import series_invert
from qetude.verifier import (Recurrence, check_certificate,
                             check_coefficient_identity,
                             check_recurrence_numeric, lehmer_operator,
                             solve_certificate)


def report(number, title, ok):
    print(f"criterion {number:2d} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {title}"


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    ok = all(det_oracle(n) == det_recurrence(n) for n in range(1, 13))
    elapsed = time.monotonic() - start
    report(1, "oracle equivalence n<=12", ok and elapsed < 20)


def test_criterion_02_closed_form_at_desk_scale():
    ok = all(theorem2_value(n) == det_recurrence(n) for n in range(1, 41))
    report(2, "closed form equals determinant n<=40", ok)


def test_criterion_03_displayed_tables_reproduced():
    results = dict((name, passed) for name, passed, _ in reproduce())
    report(3, "X and X^2 coefficient tables byte-for-byte",
           results["xcoeffs"] and results["x2coeffs"])


def test_criterion_04_gaussian_pipeline():
    rep = synthesize_conjecture("andrews", 5, 20)
    got = [(t.sign, t.q_shift, t.gaussian.m_offset, t.gaussian.n_param)
           for t in rep.terms[1:]]
    expected = [(-1, 0, -2, 1), (1, 2, -4, 2), (-1, 6, -6, 3),
                (1, 12, -8, 4), (-1, 20, -10, 5)]
    report(4, "q-binomial pipeline finds the five conjectures",
           got == expected and rep.holdout_verified)


def test_criterion_05_ansatz_pipeline():
    rep = synthesize_conjecture("ansatz", 5, 24)
    N = MPoly.var(NQ_VARS, "N")
    q = MPoly.var(NQ_VARS, "q")
    one = MPoly.one(NQ_VARS)

    def bullet(a):
        num = MPoly.one(NQ_VARS)
        for j in range(a, 2 * a):
            num = num * (N - q**j)
        den = q ** (a * (a + 1) // 2)
        for i in range(1, a + 1):
            den = den * (one - q**i)
        return RationalFunc(num, den)

    fits_ok = all(rational_equal(t.rational, bullet(t.a)) for t in rep.terms[1:])
    ratios_ok = [p.to_text() for p in rep.denominator_ratios] == \
        ["q^2 - q^4", "q^3 - q^6", "q^4 - q^8", "q^5 - q^10"]
    report(5, "rational-fit pipeline matches the five bullets and ratios",
           fits_ok and ratios_ok)


def test_criterion_06_proof_mechanization():
    numeric = bool(check_recurrence_numeric(40, theorem2_value))
    coeffs = all(bool(check_coefficient_identity(a)) for a in range(1, 9))
    rec = lehmer_operator()
    cert = solve_certificate(rec, 4)
    certified = bool(check_certificate(rec, cert))
    report(6, "recurrence replay, coefficient identity, solved certificate",
           numeric and coeffs and certified)


def test_criterion_07_stabilization():
    ok = True
    for n in range(3, 31):
        s = theorem1_truncated(n - 2)
        d = det_recurrence(n)
        for i in range(n - 1):
            got = QPoly({a: c.coeff(i) for a, c in d.coeffs.items()
                         if c.coeff(i)})
            if s.coeff(i) != got:
                ok = False
    report(7, "limit series stabilization through q^(n-2)", ok)


def test_criterion_08_integer_sequence_tie_in():
    via_series = series_invert(substitute_x(theorem1_truncated(20), 1, 1))
    series_terms = [int(c) for c in via_series.scalar_list()[1:]]
    counted = sequence_rpartitions(-1, 20)
    ok = series_terms == SEQUENCE_TERMS and counted == SEQUENCE_TERMS
    report(8, "reciprocal series and composition counts agree on 20 terms", ok)


def test_criterion_09_rogers_ramanujan():
    K = 40
    limit = theorem1_truncated(K)
    sum_side = substitute_x(limit, -1, 1)
    product_side = rr_product_truncated(K, {1, 4}, 5)
    gap_counts = [1] + sequence_rpartitions(2, K)
    sides_ok = sum_side == product_side
    counts_ok = [int(c) for c in sum_side.scalar_list()] == gap_counts
    # companion specializations must be computable side by side; no identity
    # is asserted for X = -1
    emitted = substitute_x(limit, -1, 0).scalar_list() and \
        substitute_x(limit, -1, 2).scalar_list()
    report(9, "X=-q specialization matches the mod-5 product and gap counts",
           sides_ok and counts_ok and bool(emitted))


def test_criterion_10_negative_controls(tmp_path, monkeypatch, capsys):
    # 1. a poisoned table entry must break both discovery pipelines
    base = generate_table(14)
    rows = list(base.rows)
    row = list(rows[11])
    row[2] = row[2] + QPoly.term(99)
    rows[11] = tuple(row)
    poisoned = type(base)(base.n_max, tuple(rows))
    table_failures = 0
    for mode in ("andrews", "ansatz"):
        try:
            synthesize_from_table(mode, 3, poisoned)
        except GuessError:
            table_failures += 1

    # 2. an operator that does not annihilate the sequence must be rejected,
    #    both numerically and by the certificate search
    bad_numeric = False
    for n in range(1, 6):
        q2 = det_recurrence(n + 2)
        q1 = det_recurrence(n + 1)
        q0 = det_recurrence(n)
        residual = q2 - q1 + (q0 * QPoly.term(n + 1)).shift_x(1)  # wrong shift
        if not residual.is_zero():
            bad_numeric = True
            break
    one = MPoly.one(("q", "X", "N", "A"))
    no_cert = False
    try:
        solve_certificate(Recurrence(MPoly.zero(("q", "X", "N", "A")), -one, one), 4)
    except ValueError:
        no_cert = True

    # 3. a corrupted cache file must be ignored with a warning, not trusted
    monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
    (tmp_path / "det_6.json").write_text('{"definitely": "not a polynomial"}')
    recovered = cached_det(6) == det_recurrence(6)
    warned = "corrupt cache" in capsys.readouterr().err

    report(10, "fault injections fail loudly",
           table_failures == 2 and bad_numeric and no_cert
           and recovered and warned)
