import hashlib
import json

import pytest

from qetude.cli import (cache_load, cache_store, cached_det, fixture_metadata,
                        load_fixture, run)
from qetude.lehmer import det_recurrence
from qetude.poly import QPoly, XQPoly
from qetude.qseries import substitute_x, theorem1_truncated
from qetude.reproduce import SEQUENCE_TERMS


def out_of(capsys):
    return capsys.readouterr().out


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

    def test_rr_check(self, capsys):
        assert run(["rr-check", "--order", "10"]) == 0
        assert out_of(capsys).startswith("PASS")

    def test_reproduce_single_item(self, capsys):
        assert run(["reproduce", "--only", "xcoeffs"]) == 0
        assert out_of(capsys).strip() == "PASS  xcoeffs"

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
    "verify --coefficient 6":
        "ebf1ea2ce25f4ded0515d1213304e1ee968b2ce0b1bc0e88899819f063452fe7",
    "verify --certificate XN --format json":
        "d9f6d0271906afb03690be0a00b2bce487c5f6c19a1654330ea3aa361d269911",
    "verify --solve-certificate 4 --format json":
        "626c8fa1bf6300fdf01dc8769ba85d1bd0c837f2c63b934ba538af4aca83bd47",
    "det --n 8 --method oracle --format json":
        "98fdd3c404e24f1ee2f3a04a4b55f45f63c5dc42b0039c954cd063d46cf01371",
}


class TestMultiOutputUnchanged:
    @pytest.mark.parametrize("command", sorted(MULTI_DIGESTS))
    def test_bytes_match_recorded_digest(self, capsys, command):
        assert run(command.split()) == 0
        digest = hashlib.sha256(out_of(capsys).encode()).hexdigest()
        assert digest == MULTI_DIGESTS[command]


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as e:
            run(["det", "--n", "0"])
        assert e.value.code == 2

    def test_unknown_verb_is_2(self):
        with pytest.raises(SystemExit) as e:
            run(["frobnicate"])
        assert e.value.code == 2

    def test_domain_error_is_1(self, capsys):
        assert run(["guess", "--mode", "andrews", "--amax", "4",
                    "--nmax", "12"]) == 1
        assert "error:" in capsys.readouterr().err


    def test_missing_certificate_file_is_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run(["verify", "--certificate", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read certificate file")
        assert len(err.strip().splitlines()) == 1

    def test_certificate_without_num_is_1(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"den": {"vars": ["q", "X", "N", "A"],
                                            "terms": [[[0, 0, 0, 0], "1", "1"]]}}))
        assert run(["verify", "--certificate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed certificate file")
        assert "num" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("truncate", ["0", "3"])
    def test_invert_with_symbolic_x_is_1_before_any_output(self, capsys, truncate):
        assert run(["series", "--truncate", truncate, "--invert"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --invert needs a scalar series")
        assert len(err.strip().splitlines()) == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        run(["guess", "--mode", "ansatz", "--amax", "3", "--nmax", "15",
             "--format", "json"])
        first = out_of(capsys)
        run(["guess", "--mode", "ansatz", "--amax", "3", "--nmax", "15",
             "--format", "json"])
        assert out_of(capsys) == first


class TestCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        cache_store(9, det_recurrence(9))
        assert cache_load(9) == det_recurrence(9)
        assert (tmp_path / "det_9.json").exists()
        assert cached_det(9) == det_recurrence(9)

    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("QETUDE_CACHE", raising=False)
        assert cache_load(5) is None
        cache_store(5, det_recurrence(5))  # silently a no-op
        assert cached_det(5) == det_recurrence(5)

    def test_corrupt_file_warns_and_recomputes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        (tmp_path / "det_7.json").write_text("{not json")
        assert cached_det(7) == det_recurrence(7)
        assert "corrupt cache" in capsys.readouterr().err

    def test_wrong_determinant_is_rejected_and_replaced(self, tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        (tmp_path / "det_6.json").write_text(det_recurrence(5).dumps())
        assert run(["det", "--n", "6"]) == 0
        captured = capsys.readouterr()
        assert "corrupt cache" in captured.err
        assert captured.out.strip() == det_recurrence(6).to_text()
        assert cache_load(6) == det_recurrence(6)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("n, value, reason", [
        (7, lambda: det_recurrence(6), "X^1 coefficient"),
        (6, lambda: det_recurrence(6) + XQPoly({0: QPoly.one()}), "constant term"),
        (6, lambda: det_recurrence(6) + XQPoly({4: QPoly.one()}), "X-degree"),
    ])
    def test_each_check_rejects(self, tmp_path, monkeypatch, capsys, n, value, reason):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        cache_store(n, value())
        assert cache_load(n) is None
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_validation_accepts_true_values(self, tmp_path, monkeypatch, capsys, n):
        monkeypatch.setenv("QETUDE_CACHE", str(tmp_path))
        cache_store(n, det_recurrence(n))
        assert cache_load(n) == det_recurrence(n)
        assert capsys.readouterr().err == ""


class TestFixtures:
    def test_metadata_lists_both_sequences(self):
        meta = fixture_metadata()
        assert set(meta) == {"A003116", "A039924"}

    def test_a003116_matches_direct_count(self):
        pairs = load_fixture("A003116")
        assert [v for _, v in pairs] == SEQUENCE_TERMS
        assert pairs[0][0] == 1

    def test_a039924_consistent_with_limit_series(self):
        pairs = load_fixture("A039924")
        K = len(pairs) - 1
        series = substitute_x(theorem1_truncated(K), 1, 1).scalar_list()
        assert [v for _, v in pairs] == [int(c) for c in series]

    def test_unknown_sequence_rejected(self):
        with pytest.raises(KeyError):
            load_fixture("A000001")
