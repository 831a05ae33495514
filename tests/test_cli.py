import hashlib
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

import pytest

import qetude
from qetude.cli import (REPRODUCE_ITEMS, VERBS, build_parser, cache_load, cache_store,
                        cached_det, run)
from qetude.lehmer import det_recurrence
from qetude.poly import QPoly, XQPoly
from qetude.qseries import (fixture_metadata, load_fixture, substitute_x,
                            theorem1_truncated)
from qetude.reproduce import BULLETS, ITEMS, SEQUENCE_TERMS, reproduce
from qetude.verifier import VERIFY_CHECKS


def out_of(capsys):
    return capsys.readouterr().out


# a JSON document nested past the decoder's recursion limit
NESTED_TOO_DEEP = "[" * 100000 + "]" * 100000


def certificate_with_exponent(x):
    """Certificate JSON holding X^x * N over 1."""
    vars = ["q", "X", "N", "A"]
    return json.dumps({"num": {"vars": vars, "terms": [[[0, x, 1, 0], "1", "1"]]},
                       "den": {"vars": vars, "terms": [[[0, 0, 0, 0], "1", "1"]]}})


def two_xn_certificate(tmp_path):
    """A certificate file holding 2*X*N, which fails both orientations."""
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"num": {"vars": ["q", "X", "N", "A"],
                                        "terms": [[[0, 1, 1, 0], "2", "1"]]},
                                "den": {"vars": ["q", "X", "N", "A"],
                                        "terms": [[[0, 0, 0, 0], "1", "1"]]}}))
    return str(path)


# SHA-256 of `det --n N --format json` as written by the Fraction-based kernel
# the integer kernel replaced; the closed form prints the same bytes.
JSON_DIGESTS = {
    1: "851e6f7d626884b6ddb59ef544009ca9da90296f086e8d029f42782aa6250888",
    2: "93f22d582c105d4d437a916eb100ba702897301ae1c5c5f74666eb640f7a6411",
    3: "47679b841d842bac8fb8c5a8f97d0adbf31337a294b9b78e0a6d1f13ccaf06cb",
    4: "18752a64727f94f6af63709104039a8ab97cd8b91db5518f91416681b006f93b",
    5: "c076af3952e61afcfce1ea6c9aa995edb98706033e4d6430f17a79fb8d3c71a8",
    6: "5b0dde569e64962fd245376f263eed0fcff096eab058e3f95dada8dfab6d5dbe",
    7: "c93a15022e49abaf3dae4680b8508ef774a3646f1c759582fca3a3193af81812",
    8: "98fdd3c404e24f1ee2f3a04a4b55f45f63c5dc42b0039c954cd063d46cf01371",
    9: "dcbfa45bfb79c3450c9a0b173610932fd10f61edd13587f0727ac2c8dc1fbefe",
    10: "d796882274f23861ecaa59bf7d0b1d158a6237a2374cd18ca04c0c0ec9ce6b84",
    11: "241fa7ea56b4d4bbb522b4ea3e680f3a0f37536e4b99429e154ec664fdfd8f59",
    12: "58a019e37ac8086a5ab474ae1b9146ca214f0ee86ad55232307a86934c27ead7",
}


class TestVerbs:
    def test_det_text(self, capsys):
        assert run(["det", "--n", "4"]) == 0
        assert out_of(capsys).strip() == "1 - (1+q+q^2)*X + q^2*X^2"

    def test_det_oracle_agrees(self, capsys):
        run(["det", "--n", "6", "--method", "oracle"])
        oracle = out_of(capsys)
        run(["det", "--n", "6"])
        assert oracle == out_of(capsys)

    def test_det_json_parses(self, capsys):
        assert run(["det", "--n", "5", "--format", "json"]) == 0
        payload = json.loads(out_of(capsys))
        assert isinstance(payload, dict)

    def test_closed_form_matches_det(self, capsys):
        run(["closed-form", "--n", "9"])
        cf = out_of(capsys)
        run(["det", "--n", "9"])
        assert cf == out_of(capsys)

    @pytest.mark.parametrize("n", ["63", "64", "127", "128"])
    def test_det_matches_closed_form_across_slot_widths(self, capsys, monkeypatch, n):
        monkeypatch.delenv("QETUDE_CACHE", raising=False)
        assert run(["det", "--n", n]) == 0
        det = out_of(capsys)
        assert run(["closed-form", "--n", n]) == 0
        assert det == out_of(capsys)

    def test_guess_text(self, capsys):
        assert run(["guess", "--mode", "andrews", "--amax", "2",
                    "--nmax", "12"]) == 0
        text = out_of(capsys)
        assert "GP(n-4, 2)" in text
        assert "holdout verified: True" in text

    def test_guess_json(self, capsys):
        assert run(["guess", "--mode", "ansatz", "--amax", "2",
                    "--nmax", "12", "--format", "json"]) == 0
        j = json.loads(out_of(capsys))
        assert j["mode"] == "ansatz" and len(j["terms"]) == 3

    def test_verify_default_passes(self, capsys):
        assert run(["verify", "--numeric", "10", "--coefficient", "3"]) == 0
        assert "FAIL" not in out_of(capsys)

    def test_verify_literal_certificate(self, capsys):
        assert run(["verify", "--certificate", "XN"]) == 0
        text = out_of(capsys)
        assert "either orientation" in text

    def test_verify_solve_certificate(self, capsys):
        assert run(["verify", "--solve-certificate", "4"]) == 0
        assert "PASS" in out_of(capsys)

    def test_solved_certificate_is_zero_tested_once(self, capsys, monkeypatch):
        from qetude import verifier

        calls = []
        real = verifier.check_certificate

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verifier, "check_certificate", spy)
        assert run(["verify", "--solve-certificate", "3"]) == 0
        assert out_of(capsys) == "PASS  certificate\n"
        assert len(calls) == 1

    def test_series_symbolic(self, capsys):
        assert run(["series", "--truncate", "2"]) == 0
        assert out_of(capsys).splitlines()[0].startswith("q^0:")

    def test_series_specialized_and_inverted(self, capsys):
        assert run(["series", "--truncate", "6", "--x", "q", "--invert"]) == 0
        lines = out_of(capsys).splitlines()
        assert "reciprocal:" in lines

    @pytest.mark.parametrize("x, coeff, qexp", [("-q", -1, 1), ("-q^2", -1, 2)])
    def test_series_negative_x_in_equals_form(self, capsys, x, coeff, qexp):
        assert run(["series", "--truncate", "8", f"--x={x}"]) == 0
        expected = substitute_x(theorem1_truncated(8), coeff, qexp)
        assert out_of(capsys).splitlines() == [
            f"q^{i}: {c}" for i, c in enumerate(expected.coeffs)]

    def test_sequence_formats(self, capsys):
        assert run(["sequence", "--r", "-1", "--count", "5"]) == 0
        assert out_of(capsys).strip() == "1, 2, 4, 7, 13"
        assert run(["sequence", "--r", "-1", "--count", "3",
                    "--format", "bfile"]) == 0
        assert out_of(capsys) == "1 1\n2 2\n3 4\n"
        assert run(["sequence", "--r", "2", "--count", "10", "--format", "json"]) == 0
        assert out_of(capsys) == "[1, 1, 1, 2, 2, 3, 3, 4, 5, 6]\n"

    def test_rr_check(self, capsys):
        assert run(["rr-check", "--order", "10"]) == 0
        assert out_of(capsys).startswith("PASS")

    def test_reproduce_single_item(self, capsys):
        assert run(["reproduce", "--only", "xcoeffs"]) == 0
        assert out_of(capsys).strip() == "PASS  xcoeffs"

    def test_reproduce_rejects_an_unknown_item(self):
        with pytest.raises(ValueError, match="unknown reproduce item 'bogus'"):
            reproduce("bogus")

    def test_reproduce_json_carries_detail_on_failure(self, capsys, monkeypatch):
        monkeypatch.setattr("qetude.reproduce.ITEMS", {
            "good": lambda: (True, "unused"),
            "bad": lambda: (False, [1, 2]),
        })
        assert run(["reproduce", "--format", "json"]) == 1
        assert json.loads(out_of(capsys)) == [
            {"item": "good", "pass": True},
            {"item": "bad", "pass": False, "detail": "[1, 2]"},
        ]

    def test_ansatz_fails_on_a_bullet_missing_a_factor(self, capsys, monkeypatch):
        num, den = BULLETS[3]
        monkeypatch.setitem(BULLETS, 3, (num.replace("*(N - q^5)", ""), den))
        assert run(["reproduce", "--only", "ansatz"]) == 1
        assert out_of(capsys) == "FAIL  ansatz  ([3])\n"
        assert run(["reproduce", "--only", "ansatz", "--format", "json"]) == 1
        assert json.loads(out_of(capsys)) == [
            {"item": "ansatz", "pass": False, "detail": "[3]"}]


def refuse_per_n_values(monkeypatch):
    """Make the one-shot builder of a single GP raise."""
    def refuse(*args):
        raise AssertionError("a per-n value was built")
    monkeypatch.setattr(import_module("qetude.closedform"), "gaussian_poly", refuse)


class TestStreamsServeTheReplays:
    """The closed-form replay's theorem2_value builds no q-binomial from its
    first factor."""

    def test_verify_numeric(self, capsys, monkeypatch):
        refuse_per_n_values(monkeypatch)
        assert run(["verify", "--numeric", "24"]) == 0
        assert out_of(capsys) == ("PASS  recurrence-numeric closed form n<=24\n"
                                  "PASS  recurrence-numeric determinant n<=24\n")

    def test_the_guard_catches_a_per_n_call(self, monkeypatch):
        from qetude import closedform

        refuse_per_n_values(monkeypatch)
        with pytest.raises(AssertionError, match="per-n"):
            closedform.coefficient_consistency(1, 4)


class TestReproduceRunsAnsatzOnce:
    @pytest.fixture
    def ansatz_reports(self, monkeypatch):
        """Every report the ansatz pipeline returns, in call order."""
        import qetude.discovery as discovery

        reports = []
        original = discovery.synthesize_conjecture

        def counting(mode, a_max, n_max):
            report = original(mode, a_max, n_max)
            if mode == "ansatz":
                reports.append(report)
            return report

        monkeypatch.setattr(discovery, "synthesize_conjecture", counting)
        return reports

    def test_full_run_fits_the_ansatz_once(self, ansatz_reports):
        results = reproduce()
        assert [name for name, _, _ in results] == list(ITEMS)
        assert all(ok for _, ok, _ in results)
        assert len(ansatz_reports) == 1

    @pytest.mark.parametrize("item", ["ansatz", "ratios"])
    def test_single_item_fits_the_ansatz_once(self, ansatz_reports, capsys, item):
        assert run(["reproduce", "--only", item]) == 0
        assert out_of(capsys).strip() == f"PASS  {item}"
        assert len(ansatz_reports) == 1

    def test_items_without_the_ansatz_do_not_fit_it(self, ansatz_reports):
        reproduce("xcoeffs")
        assert ansatz_reports == []

    def test_calls_do_not_share_a_report(self, ansatz_reports):
        reproduce("ratios")
        reproduce("ratios")
        first, second = ansatz_reports
        assert first is not second


class TestJsonOutputUnchanged:
    @pytest.mark.parametrize("verb", ["det", "closed-form"])
    @pytest.mark.parametrize("n", sorted(JSON_DIGESTS))
    def test_bytes_match_recorded_digest(self, capsys, monkeypatch, verb, n):
        monkeypatch.delenv("QETUDE_CACHE", raising=False)
        assert run([verb, "--n", str(n), "--format", "json"]) == 0
        digest = hashlib.sha256(out_of(capsys).encode()).hexdigest()
        assert digest == JSON_DIGESTS[n]


# SHA-256 of the stdout of series-layer commands as written by the
# Fraction-based series kernel that the integer running-sum kernel replaced.
SERIES_DIGESTS = {
    "series --truncate 30":
        "ad8e0917f4c2d5a6e6dc50cb4f2d273bfe3c5850afc84ffce45aa0c716eb02c4",
    "series --truncate 30 --format json":
        "5681d08a6619a03198b517874b3b70227f125cc9c43664746361ddb220ad474a",
    "series --truncate 30 --x=-q":
        "a89c68b1f6d1be887715e4fa6b46ba06fd2f7b2302aa7d5886b66b9e7219c3d9",
    "series --truncate 30 --x=-q --format json":
        "fdaf099a7414a0c7f43abf3460184d904ea7ef9ab3ad930a7384c5fc3dfc4ad8",
    "series --truncate 20 --x q --invert":
        "e28deace4f6e389d0fc5aba4606ff7ca61f7ae151803a514cf4fb6488f7e0156",
    "rr-check --order 30":
        "3326c6a82740231622f192067dea6a864b4add6d5ed916810300a9332f9db615",
    "rr-check --order 30 --format json":
        "3e6f1786de0d169b6f491bf1a8fc61d56fbce569be61a5c743d43a617fe8c58f",
    "sequence --r -1 --count 20 --format bfile":
        "2dc82ae1aded1c7aedd4d1d085fc2caca7e510cf8a929df4b97715903cab1df4",
}


class TestSeriesOutputUnchanged:
    @pytest.mark.parametrize("command", sorted(SERIES_DIGESTS))
    def test_bytes_match_recorded_digest(self, capsys, command):
        assert run(command.split()) == 0
        digest = hashlib.sha256(out_of(capsys).encode()).hexdigest()
        assert digest == SERIES_DIGESTS[command]


# SHA-256 of the stdout of multivariate-layer commands (ansatz, coefficient
# identity, certificates, Bareiss oracle) as written by the Fraction-based
# MPoly kernel that the int-first kernel replaced.
MULTI_DIGESTS = {
    "guess --mode ansatz --amax 4 --nmax 20":
        "ccaf8dacb3779fd4d52d05c6852584a2b512d9ede0c91964c3458ea2b09c1cf3",
    "guess --mode ansatz --amax 4 --nmax 20 --format json":
        "399b252799df360b3dd3398af11171f1051e4d1c4fe7b57a2b23096cac877579",
    "guess --mode ansatz --amax 8 --nmax 27":
        "0c8aff67ade8c57303014b380e19da480d4709125c9cc5bcfc5a22e326fbfb10",
    "guess --mode ansatz --amax 8 --nmax 27 --format json":
        "a27fa261277134d17f15588267dfee2363bb7038722b543f470a67b02e2a10f5",
    "verify --coefficient 6":
        "ebf1ea2ce25f4ded0515d1213304e1ee968b2ce0b1bc0e88899819f063452fe7",
    "verify --certificate XN --format json":
        "d9f6d0271906afb03690be0a00b2bce487c5f6c19a1654330ea3aa361d269911",
    "verify --solve-certificate 4 --format json":
        "626c8fa1bf6300fdf01dc8769ba85d1bd0c837f2c63b934ba538af4aca83bd47",
    "det --n 8 --method oracle --format json":
        "98fdd3c404e24f1ee2f3a04a4b55f45f63c5dc42b0039c954cd063d46cf01371",
    # where the mod-p screens reject the most exact work
    "verify --solve-certificate 3 --format json":
        "626c8fa1bf6300fdf01dc8769ba85d1bd0c837f2c63b934ba538af4aca83bd47",
    "verify --solve-certificate 5 --format json":
        "626c8fa1bf6300fdf01dc8769ba85d1bd0c837f2c63b934ba538af4aca83bd47",
    "verify --solve-certificate 6 --format json":
        "626c8fa1bf6300fdf01dc8769ba85d1bd0c837f2c63b934ba538af4aca83bd47",
    "verify --coefficient 20":
        "a7ca572fc05e0c8c4d7f6b09a2c2292a2323ee0db6a141096de1cffcc3df8cde",
    "guess --mode ansatz --amax 10 --nmax 33 --format json":
        "eac702c6da4168b860a708674aad6f506ed4fc06c82328c51ebc35c6717deb20",
    # runs that mix checks: the informational lines first, then the results
    # in the order numeric, coefficient, certificate, solve
    "verify --format json":
        "61fc9c60b2c3077fb7ef01f1ce685019ec1ad131dac0424664392178124d6695",
    "verify --numeric 10 --coefficient 3 --certificate XN":
        "2f1434d62f9b6c98430c016c446fe0fc0ddfbc474626a5921ac0cfe3143f1197",
    "verify --numeric 10 --coefficient 3 --certificate XN --format json":
        "c1ea987f0c4bc73d166365428d5f1899a4229ba81312a46d839059d71861b2a8",
    "verify --numeric 5 --solve-certificate 3 --format json":
        "ea2ca8ac1c1e6b830f322211fd4203e167ef8d3ebbb1f65d26e93a96a3f9840a",
}
# commands that exit 1: below cap 3 the screen rejects every subset
MULTI_FAILURE_DIGESTS = {
    "verify --solve-certificate 1 --format json":
        "a2702f2bb516c581d8c8059807c7598accf785d798b5eb2b7d9e188e5f82190e",
    "verify --solve-certificate 2 --format json":
        "a2702f2bb516c581d8c8059807c7598accf785d798b5eb2b7d9e188e5f82190e",
}


class TestMultiOutputUnchanged:
    @pytest.mark.parametrize("command", sorted(MULTI_DIGESTS))
    def test_bytes_match_recorded_digest(self, capsys, command):
        assert run(command.split()) == 0
        digest = hashlib.sha256(out_of(capsys).encode()).hexdigest()
        assert digest == MULTI_DIGESTS[command]

    @pytest.mark.parametrize("command", sorted(MULTI_FAILURE_DIGESTS))
    def test_failure_bytes_match_recorded_digest(self, capsys, command):
        assert run(command.split()) == 1
        digest = hashlib.sha256(out_of(capsys).encode()).hexdigest()
        assert digest == MULTI_FAILURE_DIGESTS[command]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
README = PERFBENCH.parent / "README.md"
# exit code and stdout SHA-256 of every benchmark command, read and never
# written here; a command that prints other bytes fails before the benchmark
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


class TestGoldenOutputUnchanged:
    def test_every_benchmark_command_is_pinned(self):
        workloads = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]
        assert sorted(GOLDEN) == sorted({" ".join(c["argv"]) for w in workloads.values()
                                         for c in w["commands"]})
        assert len(GOLDEN) == 21

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_bytes_match_golden_digest(self, capsys, monkeypatch, command):
        monkeypatch.delenv("QETUDE_CACHE", raising=False)
        code = run(command.split())
        digest = hashlib.sha256(out_of(capsys).encode()).hexdigest()
        assert {"exit": code, "sha256": digest} == GOLDEN[command]


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as e:
            run(["det", "--n", "0"])
        assert e.value.code == 2

    def test_negative_amax_is_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["guess", "--mode", "andrews", "--amax", "-1", "--nmax", "12"])
        assert e.value.code == 2
        assert "must be nonnegative, got -1" in capsys.readouterr().err

    def test_unknown_verb_is_2(self):
        with pytest.raises(SystemExit) as e:
            run(["frobnicate"])
        assert e.value.code == 2

    def test_domain_error_is_1(self, capsys):
        assert run(["guess", "--mode", "andrews", "--amax", "4",
                    "--nmax", "12"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err

    def test_a_short_ansatz_table_is_1_before_any_fit(self, capsys, monkeypatch):
        from qetude import discovery

        tables = []
        monkeypatch.setattr(discovery, "generate_table", tables.append)
        assert run(["guess", "--mode", "ansatz", "--amax", "4", "--nmax", "14"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and tables == []
        assert err == ("error: table too short for a = 4: the ansatz needs "
                       "n_max >= 3a + 3 = 15\n")
        # the same sizes suit the other pipeline
        monkeypatch.undo()
        assert run(["guess", "--mode", "andrews", "--amax", "4", "--nmax", "14"]) == 0

    def test_missing_certificate_file_is_1(self, tmp_path, capsys, monkeypatch):
        from qetude import verifier

        missing = tmp_path / "absent.json"
        replays = []
        real = verifier.check_recurrence_numeric

        def spy(*args):
            replays.append(args)
            return real(*args)

        monkeypatch.setattr(verifier, "check_recurrence_numeric", spy)
        # the certificate is loaded before any check, so --numeric replays
        # nothing; an empty path selects the certificate check like any other
        for path in (str(missing), ""):
            for checks in ([], ["--numeric", "5"]):
                assert run(["verify", *checks, "--certificate", path]) == 1
                out, err = capsys.readouterr()
                assert out == ""
                assert err.startswith("error: cannot read certificate file")
                assert len(err.strip().splitlines()) == 1
        assert replays == []

    def test_certificate_without_num_is_1(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"den": {"vars": ["q", "X", "N", "A"],
                                            "terms": [[[0, 0, 0, 0], "1", "1"]]}}))
        assert run(["verify", "--certificate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: malformed certificate file")
        assert "num" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("term, reason", [
        ([[0, 0, 0, 0], "1"], "ValueError: not enough values to unpack"),
        ([[0, 0, 0, 0], "x", "1"], "ValueError: invalid literal for int()"),
    ], ids=["two-field-term", "numerator-x"])
    def test_certificate_with_a_bad_term_is_1_and_names_the_file(
            self, tmp_path, capsys, term, reason):
        path = tmp_path / "cert.json"
        poly = {"vars": ["q", "X", "N", "A"], "terms": [term]}
        path.write_text(json.dumps({"num": poly, "den": poly}))
        assert run(["verify", "--certificate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed certificate file {path}: {reason}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("content", [
        certificate_with_exponent(1.5), certificate_with_exponent(True), NESTED_TOO_DEEP,
    ], ids=["exponent-1.5", "exponent-true", "nested-too-deep"])
    def test_malformed_certificate_is_one_error_line_in_a_fresh_process(
            self, tmp_path, content):
        path = tmp_path / "cert.json"
        path.write_text(content)
        proc = cli_process(["verify", "--certificate", str(path)], subprocess.PIPE)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: malformed certificate file {path}: ")

    @pytest.mark.parametrize("truncate", ["0", "3"])
    def test_invert_with_symbolic_x_is_1_before_any_output(self, capsys, truncate):
        assert run(["series", "--truncate", truncate, "--invert"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --invert needs a scalar series")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["det", "--n", "8"], ["reproduce", "--format", "json"]])
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_reader_is_1_without_traceback(self, argv, unbuffered):
        with closed_reader() as stdout:
            proc = cli_process(argv, stdout, unbuffered)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["det", "--help"]])
    def test_help_to_a_closed_reader_is_1_without_traceback(self, argv):
        with closed_reader() as stdout:
            proc = cli_process(argv, stdout)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: [Errno 32] Broken pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["det", "--n", "8"], ["--help"]])
    def test_full_device_is_1_without_traceback(self, argv):
        with open("/dev/full", "w") as stdout:
            proc = cli_process(argv, stdout)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: [Errno 28] No space left on device"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_usage_error_stays_2_with_a_failing_stdout(self):
        with open("/dev/full", "w") as stdout:
            proc = cli_process(["det"], stdout)
        assert proc.returncode == 2
        assert "usage: qetude det" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv,stdout,error", [
        pytest.param(["det", "--help"], lambda: open("/dev/full", "w"),
                     "error: [Errno 28] No space left on device",
                     marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                              reason="needs /dev/full"),
                     id="det-help-to-full-device"),
        pytest.param(["--help"], lambda: closed_reader(), "error: [Errno 32] Broken pipe",
                     id="help-to-closed-reader")])
    def test_unbuffered_help_to_a_failing_stdout_is_1(self, argv, stdout, error):
        """Unbuffered, help is written while argparse still runs, and the
        write error must surface as it does buffered."""
        with stdout() as out:
            proc = cli_process(argv, out, unbuffered="1")
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [error]

    def test_help_to_a_live_reader_is_0(self):
        proc = cli_process(["--help"], subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: qetude")

    def test_unwritable_cache_is_1(self, tmp_path, monkeypatch, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        monkeypatch.setenv("QETUDE_CACHE", str(not_a_dir))
        assert run(["det", "--n", "8"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: [Errno 17] File exists")
        assert len(err.strip().splitlines()) == 1

    def test_failing_certificate_file_prints_no_empty_detail(self, tmp_path, capsys):
        # 2*X*N fails both orientations; the summary names each one's residual
        assert run(["verify", "--certificate", two_xn_certificate(tmp_path)]) == 1
        first, second, summary = out_of(capsys).splitlines()
        assert first == "FAIL  certificate orientation G(n,a+1)-G(n,a) [informational]"
        assert second == "FAIL  certificate orientation G(n,a)-G(n,a-1) [informational]"
        assert summary.startswith("FAIL  certificate either orientation  "
                                  "(G(n,a+1)-G(n,a): -2*X^2*N^2*A^8 + 2*X^2*N^3*A^6 + ")
        assert "; G(n,a)-G(n,a-1): -q^5*X^2*N^4*A^6 + " in summary
        assert summary.endswith(" - q^10*X*N^4*A^8)")
        assert hashlib.sha256(summary.encode()).hexdigest() == \
            "bb3fafdb652311eb0e303c25bea3acd9683d21a4a0b44f1b5cfeaf863d23939b"

    def test_failing_certificate_json_carries_each_orientation(self, tmp_path, capsys):
        assert run(["verify", "--certificate", two_xn_certificate(tmp_path),
                    "--format", "json"]) == 1
        up, down, summary = json.loads(out_of(capsys))
        assert not (up["pass"] or down["pass"] or summary["pass"])
        assert summary["counterexample"] == (
            f"G(n,a+1)-G(n,a): {up['counterexample']}; "
            f"G(n,a)-G(n,a-1): {down['counterexample']}")

    def test_certificate_cap_too_small_is_1(self, capsys):
        assert run(["verify", "--solve-certificate", "2"]) == 1
        assert out_of(capsys) == \
            "FAIL  certificate-solve  (certificate not found at degree cap)\n"


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        run(["guess", "--mode", "ansatz", "--amax", "3", "--nmax", "15",
             "--format", "json"])
        first = out_of(capsys)
        run(["guess", "--mode", "ansatz", "--amax", "3", "--nmax", "15",
             "--format", "json"])
        assert out_of(capsys) == first


# SHA-256 of the cache file det_N.json as written through the json module,
# json.dumps(det_recurrence(N).to_json(), sort_keys=True)
STORED_DIGESTS = {
    24: "19b6c25c91359097cc2edca9c0dc1e1be706d2b1ee015306c724ecc779b9fb2b",
    50: "e91acf739ba08f8f73cefcdf189a1d9f2977ce6b13c2bacd2656249cc458b778",
}


class TestCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        cache_store(9, det_recurrence(9))
        assert cache_load(9, det_recurrence(9)) == det_recurrence(9)
        assert (tmp_path / "det_9.json").exists()
        assert cached_det(9) == det_recurrence(9)

    @pytest.mark.parametrize("step", ["write", "replace"])
    def test_failed_store_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys, step):
        import errno

        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        monkeypatch.setattr("qetude.poly.XQPoly.dumps" if step == "write"
                            else "qetude.cli.os.replace", full)
        assert run(["det", "--n", "5"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("QETUDE_CACHE", raising=False)
        assert cache_load(5, det_recurrence(5)) is None
        cache_store(5, det_recurrence(5))  # silently a no-op
        assert cached_det(5) == det_recurrence(5)

    @pytest.mark.parametrize("content", [None, "stored", "{not json"],
                             ids=["miss", "hit", "rejected"])
    def test_cached_det_computes_q_n_once(self, tmp_path, monkeypatch, capsys, content):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        if content == "stored":
            cache_store(30, det_recurrence(30))
        elif content:
            (tmp_path / "det_30.json").write_text(content)
        calls = []

        def counted(n):
            calls.append(n)
            return det_recurrence(n)

        monkeypatch.setattr("qetude.lehmer.det_recurrence", counted)
        assert cached_det(30) == det_recurrence(30)
        assert calls == [30]
        assert ("corrupt cache" in capsys.readouterr().err) == (content == "{not json")
        assert (tmp_path / "det_30.json").read_text() == det_recurrence(30).dumps()

    def test_corrupt_file_warns_and_recomputes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        (tmp_path / "det_7.json").write_text("{not json")
        assert cached_det(7) == det_recurrence(7)
        assert "corrupt cache" in capsys.readouterr().err

    def test_file_nested_too_deep_warns_and_recomputes(self, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        (tmp_path / "det_6.json").write_text(NESTED_TOO_DEEP)
        assert cached_det(6) == det_recurrence(6)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: ignoring corrupt cache file")

    def test_det_over_a_file_nested_too_deep_prints_as_without_cache(self, tmp_path):
        (tmp_path / "det_6.json").write_text(NESTED_TOO_DEEP)
        cached = cli_process(["det", "--n", "6"], subprocess.PIPE, cache=str(tmp_path))
        plain = cli_process(["det", "--n", "6"], subprocess.PIPE)
        assert cached.returncode == plain.returncode == 0
        assert cached.stdout == plain.stdout
        assert "Traceback" not in cached.stderr
        err = cached.stderr.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: ignoring corrupt cache file")

    def test_string_exponents_count_as_corrupt(self, tmp_path, monkeypatch, capsys):
        # dumps writes int exponents; a file with "1" for 1 is not one it wrote
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        data = {a: [[str(e), n, d] for e, n, d in p]
                for a, p in det_recurrence(6).to_json().items()}
        (tmp_path / "det_6.json").write_text(json.dumps(data))
        assert cache_load(6, det_recurrence(6)) is None
        err = capsys.readouterr().err
        assert err.startswith("warning: ignoring corrupt cache file")
        assert "not an int exponent" in err

    def test_wrong_determinant_is_rejected_and_replaced(self, tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        (tmp_path / "det_6.json").write_text(det_recurrence(5).dumps())
        assert run(["det", "--n", "6"]) == 0
        captured = capsys.readouterr()
        assert "corrupt cache" in captured.err
        assert captured.out.strip() == det_recurrence(6).to_text()
        assert cache_load(6, det_recurrence(6)) == det_recurrence(6)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("n, value, case", [
        (7, lambda: det_recurrence(6), "X^1 coefficient"),
        (6, lambda: det_recurrence(6) + XQPoly({0: QPoly.one()}), "constant term"),
        (6, lambda: det_recurrence(6) + XQPoly({4: QPoly.one()}), "X-degree"),
        # right X-degree, constant term and X^1 coefficient; wrong X^2 coefficient
        (8, lambda: det_recurrence(8) + XQPoly({2: QPoly.term(5)}), "X^2 coefficient"),
    ])
    def test_each_check_rejects(self, tmp_path, monkeypatch, capsys, n, value, case):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        cache_store(n, value())
        assert cache_load(n, det_recurrence(n)) is None
        err = capsys.readouterr().err
        assert err.startswith(f"warning: ignoring corrupt cache file {tmp_path}")
        assert len(err.splitlines()) == 1
        assert cached_det(n) == det_recurrence(n)  # warns again, recomputes, rewrites
        assert cache_load(n, det_recurrence(n)) == det_recurrence(n)
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_validation_accepts_true_values(self, tmp_path, monkeypatch, capsys, n):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        cache_store(n, det_recurrence(n))
        assert cache_load(n, det_recurrence(n)) == det_recurrence(n)
        assert capsys.readouterr().err == ""

    def test_a_file_in_numeric_key_order_is_a_hit(self, tmp_path, monkeypatch, capsys):
        # without sort_keys "2" comes before "10": not the bytes cache_store writes
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        text = json.dumps(det_recurrence(24).to_json())
        assert text != det_recurrence(24).dumps()
        (tmp_path / "det_24.json").write_text(text)
        assert cached_det(24) == det_recurrence(24)
        assert capsys.readouterr().err == ""
        assert (tmp_path / "det_24.json").read_text() == text

    @pytest.mark.parametrize("n", sorted(STORED_DIGESTS))
    def test_files_of_the_json_module_writer_are_hits_and_rewritten_the_same(
            self, tmp_path, monkeypatch, capsys, n):
        # the cache files json.dumps(value.to_json(), sort_keys=True) wrote
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        path = tmp_path / f"det_{n}.json"
        path.write_text(json.dumps(det_recurrence(n).to_json(), sort_keys=True))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == STORED_DIGESTS[n]
        assert cache_load(n, det_recurrence(n)) == det_recurrence(n)
        assert capsys.readouterr().err == ""
        path.unlink()
        cache_store(n, det_recurrence(n))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == STORED_DIGESTS[n]


class TestFixtures:
    def test_metadata_lists_both_sequences(self):
        meta = fixture_metadata()
        assert set(meta) == {"A003116", "A039924"}

    def test_a003116_matches_direct_count(self):
        pairs = load_fixture("A003116")
        assert [v for _, v in pairs] == SEQUENCE_TERMS
        assert pairs[0][0] == 1

    def test_a039924_in_repo_fixture_matches_limit_series(self):
        """A regression check, not an outside one: the fixture was computed in
        this repository (see its provenance in fixtures.json), so agreeing with
        the limit series shows only that the expansion has not changed."""
        pairs = load_fixture("A039924")
        K = len(pairs) - 1
        series = substitute_x(theorem1_truncated(K), 1, 1).scalar_list()
        assert [v for _, v in pairs] == [int(c) for c in series]

    def test_unknown_sequence_rejected(self):
        with pytest.raises(KeyError):
            load_fixture("A000001")


def tree_env():
    """Environment for a fresh interpreter that imports qetude from this tree,
    without the determinant cache."""
    src = str(Path(qetude.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("QETUDE_CACHE", None)
    return env


def cli_process(argv, stdout, unbuffered="", cache=None):
    """Run the CLI in a fresh interpreter with stdout sent to `stdout`.
    PYTHONUNBUFFERED is removed from the environment unless `unbuffered`
    sets it, and the determinant cache is off unless `cache` names its
    directory."""
    env = tree_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    if cache:
        env["QETUDE_CACHE"] = cache
    return subprocess.run([sys.executable, "-m", "qetude.cli"] + argv, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


@contextmanager
def closed_reader():
    """The write end of a pipe whose reader is gone before anything is written."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        yield write_end
    finally:
        os.close(write_end)


def modules_after(code):
    """Names in sys.modules after a fresh interpreter runs `code` on this tree."""
    out = subprocess.run([sys.executable, "-c", code + "\nimport sys; print(*sorted(sys.modules))"],
                         env=tree_env(), capture_output=True, text=True, check=True).stdout
    return set(out.split())


def modules_after_verb(argv):
    """sys.modules after `python -m qetude.cli ARGV` has run to exit code 0."""
    return modules_after(f"""
import contextlib, io, runpy, sys
sys.argv = ["qetude"] + {argv!r}
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("qetude.cli", run_name="__main__")
    except SystemExit as e:
        assert e.code == 0, e.code
""")


def modules_added(code):
    """Modules a fresh interpreter on this tree adds to sys.modules while it
    runs `code`."""
    code = f"import contextlib, io, sys\nbefore = set(sys.modules)\n{code}\n" \
           "print(*sorted(set(sys.modules) - before))"
    return set(subprocess.run([sys.executable, "-c", code], env=tree_env(), capture_output=True,
                              text=True, check=True).stdout.split())


def modules_added_by_run(argv):
    """Modules `import qetude.cli` and `run(ARGV)`, to exit code 0, add in a
    fresh interpreter."""
    return modules_added(f"""
import qetude.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert qetude.cli.run({argv!r}) == 0
""")


def readme_commands():
    """The commands of the README's Command line block, without `qetude`."""
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [" ".join(line.split("#")[0].split()[1:]) for line in block.splitlines()
            if line.startswith("qetude ")]


# the README's Command line block and every benchmark command
DOCUMENTED_COMMANDS = sorted(set(readme_commands()) | set(GOLDEN))


class TestVerbTable:
    def test_the_verb_table_covers_the_parser(self):
        (verbs,) = [a.choices for a in build_parser()._actions if a.dest == "verb"]
        assert set(VERBS) == set(verbs)

    def test_the_verify_check_table_covers_the_verify_options(self):
        (verbs,) = [a.choices for a in build_parser()._actions if a.dest == "verb"]
        dests = {a.dest for a in verbs["verify"]._actions} - {"help", "format"}
        options = [c.option for c in VERIFY_CHECKS]
        assert len(options) == len(set(options))
        assert set(options) == dests

    @pytest.mark.parametrize("command", readme_commands())
    def test_verbs_return_their_lines_and_only_run_writes_them(self, capsys, command):
        args = build_parser().parse_args(command.split())
        code, lines, *notes = VERBS[args.verb](args)
        assert out_of(capsys) == ""
        assert (code, notes) == (0, [])
        assert lines and all(isinstance(line, str) for line in lines)


class TestImportFootprint:
    HEAVY = {"qetude.multi", "qetude.discovery", "qetude.verifier", "qetude.closedform",
             "qetude.lehmer", "dataclasses"}

    @pytest.mark.parametrize("argv", [["series", "--truncate", "5", "--x=-q"],
                                      ["sequence", "--r", "2", "--count", "5"],
                                      ["rr-check", "--order", "5"]])
    def test_series_verbs_load_no_heavy_layer(self, argv):
        loaded = modules_after_verb(argv)
        assert "qetude.qseries" in loaded
        assert not loaded & self.HEAVY

    @pytest.mark.parametrize("argv,layer", [
        (["guess", "--mode", "ansatz", "--amax", "2", "--nmax", "10"], "qetude.discovery"),
        (["verify", "--numeric", "5", "--coefficient", "2"], "qetude.verifier"),
        (["reproduce", "--only", "ratios"], "qetude.discovery")])
    def test_pipeline_verbs_load_no_dataclasses(self, argv, layer):
        loaded = modules_after_verb(argv)
        assert layer in loaded
        assert not loaded & {"dataclasses", "inspect"}

    # verify loads the layers of the checks it runs; the numeric replay
    # keeps the multivariate ring, which the verifier module holds
    @pytest.mark.parametrize("argv,loaded,absent", [
        (["verify", "--certificate", "XN"], "qetude.verifier",
         {"qetude.closedform", "qetude.lehmer"}),
        (["verify", "--solve-certificate", "3"], "qetude.verifier",
         {"qetude.closedform", "qetude.lehmer"}),
        (["verify", "--coefficient", "2"], "qetude.closedform", {"qetude.lehmer"}),
        (["verify", "--numeric", "5"], "qetude.multi", set()),
        (["verify", "--numeric", "5"], "qetude.lehmer", set())])
    def test_verify_loads_only_what_its_checks_run(self, argv, loaded, absent):
        modules = modules_after_verb(argv)
        assert loaded in modules
        assert not modules & absent

    def test_det_by_recurrence_skips_the_multivariate_ring(self):
        loaded = modules_after_verb(["det", "--n", "8"])
        assert "qetude.lehmer" in loaded and "qetude.multi" not in loaded

    def test_det_by_oracle_loads_the_multivariate_ring(self):
        assert "qetude.multi" in modules_after_verb(["det", "--n", "8", "--method", "oracle"])

    # det and closed-form write their JSON without the json module
    @pytest.mark.parametrize("argv,loads_json", [
        (["det", "--n", "8"], False), (["verify", "--numeric", "5"], False),
        (["det", "--n", "8", "--format", "json"], False),
        (["verify", "--numeric", "5", "--format", "json"], True),
        (["closed-form", "--n", "8", "--format", "json"], False)])
    def test_only_json_output_loads_json(self, argv, loads_json):
        added = modules_added_by_run(argv)
        assert added & {"qetude.lehmer", "qetude.closedform"}  # the verb ran
        assert ("json" in added) is loads_json

    @pytest.mark.parametrize("layout,loads_json", [("as-stored", False),
                                                   ("numeric-key-order", True)])
    def test_a_cache_hit_parses_only_a_file_that_differs(self, tmp_path, monkeypatch,
                                                         layout, loads_json):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        cache_store(24, det_recurrence(24))
        path = tmp_path / "det_24.json"
        if layout == "numeric-key-order":  # an equal value, not the stored bytes
            path.write_text(json.dumps(det_recurrence(24).to_json()))
        text = path.read_text()
        added = modules_added(f"""
import os
os.environ["QETUDE_CACHE"] = {str(tmp_path)!r}
import qetude.cli
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    assert qetude.cli.run(["det", "--n", "24"]) == 0
assert err.getvalue() == "", err.getvalue()
""")
        assert path.read_text() == text  # a hit: the file is not rewritten
        assert ("json" in added) is loads_json

    @pytest.mark.parametrize("command", DOCUMENTED_COMMANDS)
    def test_documented_commands_load_no_fractions(self, command):
        added = modules_added_by_run(command.split())
        assert "qetude.poly" in added
        assert not added & {"fractions", "decimal"}
        assert ("qetude.reproduce" in added) is command.startswith("reproduce")

    def test_a_certificate_with_a_denominator_loads_fractions(self, tmp_path):
        # X*N/2 over 1/2: the printed certificate, written with denominators
        path = tmp_path / "half.json"
        path.write_text(json.dumps({
            "num": {"vars": ["q", "X", "N", "A"], "terms": [[[0, 1, 1, 0], "1", "2"]]},
            "den": {"vars": ["q", "X", "N", "A"], "terms": [[[0, 0, 0, 0], "1", "2"]]}}))
        assert "fractions" in modules_added_by_run(["verify", "--certificate", str(path)])

    def test_a_reciprocal_with_a_denominator_loads_fractions(self):
        added = modules_added("""
from qetude.series import QSeries, series_invert
assert repr(series_invert(QSeries(3, [2, 1])).coeffs[0]) == "Fraction(1, 2)"
""")
        assert "fractions" in added

    @pytest.mark.parametrize("mode,loads_multi", [("andrews", False), ("ansatz", True)])
    def test_only_the_ansatz_pipeline_loads_the_multivariate_ring(self, mode, loads_multi):
        added = modules_added_by_run(["guess", "--mode", mode, "--amax", "3", "--nmax", "12"])
        assert "qetude.discovery" in added
        assert ("qetude.multi" in added) is loads_multi

    def test_reproduce_choices_are_the_item_names(self):
        assert REPRODUCE_ITEMS == tuple(sorted(ITEMS))

    def test_an_unknown_reproduce_item_is_a_usage_error(self):
        proc = cli_process(["reproduce", "--only", "bogus"], subprocess.PIPE)
        assert proc.returncode == 2 and proc.stdout == ""
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("qetude reproduce: error: argument --only: invalid choice:")
        assert "bogus" in last and all(name in last for name in ITEMS)

    def test_package_import_loads_no_submodule(self):
        assert not {m for m in modules_after("import qetude") if m.startswith("qetude.")}
        loaded = modules_after("from qetude import QPoly")
        assert {m for m in loaded if m.startswith("qetude.")} == {"qetude.poly"}


EXPORTS = {
    "closedform": ["coefficient_consistency", "coefficient_in_N", "gaussian_poly",
                   "theorem2_value"],
    "discovery": ["CoefficientTable", "GuessError", "GuessReport", "GuessTerm",
                  "analyze_denominators", "andrews_guess", "ansatz_guess",
                  "generate_table", "rebuild_xqpoly", "synthesize_conjecture"],
    "lehmer": ["build_matrix", "det_oracle", "det_recurrence"],
    "multi": ["MPoly", "RationalFunc", "interpolate_in_N", "rational_equal",
              "trial_divide_numerator"],
    "poly": ["InternalConsistencyError", "QPoly", "XQPoly", "qpochhammer"],
    "qseries": ["bfile_text", "count_r_partitions", "parse_bfile",
                "rr_product_truncated", "sequence_rpartitions", "substitute_x",
                "theorem1_truncated"],
    "series": ["QSeries", "series_invert"],
    "verifier": ["Certificate", "Recurrence", "check_certificate",
                 "check_coefficient_identity", "check_recurrence_numeric",
                 "lehmer_operator", "literal_certificate", "literal_certificate_report",
                 "solve_certificate"],
}


class TestPackageNamespace:
    @pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items()
                                             for n in names])
    def test_every_exported_name_imports(self, module, name):
        ns = {}
        exec(f"from qetude import {name}", ns)
        assert ns[name] is getattr(import_module(f"qetude.{module}"), name)

    def test_export_list_is_complete(self):
        assert sum(map(len, EXPORTS.values())) == 44
        assert sorted(qetude.__all__) == sorted(n for names in EXPORTS.values() for n in names)

    def test_version_and_unknown_name(self):
        from qetude import __version__
        assert __version__ == "0.1.0"
        with pytest.raises(AttributeError):
            qetude.no_such_name
