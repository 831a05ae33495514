"""Tests of the benchmark harness itself: python3 -m pytest perfbench -q"""

import json
import resource
import shutil
import subprocess
import sys

import pytest

import run
import shim

BENCHMARK = run.ROOT / "BENCHMARK.json"


@pytest.fixture
def tmp():
    with run.scratch_dir() as d:
        yield d


@pytest.fixture
def launcher():
    with run.Launcher() as launcher:
        yield launcher


def test_benchmark_json_matches_harness():
    bench = json.loads(BENCHMARK.read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    workloads = run.load_json("workloads.json")["workloads"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_names()


def test_every_command_has_a_golden_output():
    golden = run.load_json("golden.json")
    for workload in run.load_json("workloads.json")["workloads"].values():
        for spec in workload["commands"]:
            assert run.command_key(spec["argv"]) in golden


def test_altered_digest_counts_as_failure(launcher, tmp):
    commands = [{"argv": ["det", "--n", "8"]}]
    golden = run.load_json("golden.json")
    assert run.run_pass(launcher, commands, [0], golden, tmp)[0].failed == []
    key = run.command_key(commands[0]["argv"])
    altered = dict(golden, **{key: {"exit": 0, "sha256": "0" * 64}})
    result, = run.run_pass(launcher, commands, [0], altered, tmp)
    assert len(result.records) == 1
    assert [argv for argv, _, _ in result.failed] == [commands[0]["argv"]]


def test_times_are_scaled_by_the_reference_around_each_run(launcher, tmp):
    commands = [{"argv": ["det", "--n", "8"]}, {"argv": ["closed-form", "--n", "8"]}]
    result, = run.run_pass(launcher, commands, [0, 1], run.load_json("golden.json"), tmp)
    scales = [record[-1] for record in result.records]
    assert [scale for _, scale in result.setup_walls] == scales
    assert all(0.1 < scale < 10 for scale in scales)
    raw, scaled = run.per_command([result], 2, False), run.per_command([result], 2)
    for record in result.records:
        assert scaled[record[0]] == pytest.approx(raw[record[0]] * record[-1])


@pytest.mark.parametrize("argv", [["det", "--n", "8"], ["verify", "--certificate", "XN"]])
def test_tracing_does_not_change_output(launcher, tmp, argv):
    plain = launcher.run([sys.executable, "-m", "qetude.cli"] + argv, run.child_env(), tmp)
    spans = tmp / "spans.json"
    traced = launcher.run([sys.executable, str(run.HERE / "shim.py"), str(spans)] + argv,
                          run.child_env(), tmp)
    assert traced[0] == plain[0] == 0
    assert traced[1] == plain[1] == run.load_json("golden.json")[run.command_key(argv)]["sha256"]
    trace = json.loads(spans.read_text())
    assert trace["absent"] == []
    calls, _, covered, run_s = run.span_totals(trace)
    assert sum(calls.values()) > 0 and 0 < covered <= run_s


def test_missing_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import qetude  # noqa: F401  (the lookups below search its modules)
    entry_points = {"lehmer": ["no_such_function"], "poly": ["QPoly.no_such_method"],
                    "no_such_module": ["f"]}
    absent = shim.install(shim.Tracer(), entry_points)
    assert absent == ["lehmer.no_such_function", "poly.QPoly.no_such_method",
                      "no_such_module.f"]


def test_self_time_subtracts_children():
    trace = {"spans": {"names": ["a", "b"], "name_id": [0, 1, 1],
                       "start": [0.0, 2.0, 6.0], "end": [10.0, 5.0, 7.0],
                       "parent": [-1, 0, 0]},
             "run": [0.0, 12.5]}
    calls, self_s, covered, run_s = run.span_totals(trace)
    assert calls == {"a": 1, "b": 2}
    assert self_s == {"a": 6.0, "b": 4.0}
    assert (covered, run_s) == (10.0, 12.5)


def test_cache_is_off_unless_given(monkeypatch, tmp):
    monkeypatch.setenv("QETUDE_CACHE", str(tmp))
    assert "QETUDE_CACHE" not in run.child_env()
    assert run.child_env(tmp / "c")["QETUDE_CACHE"] == str(tmp / "c")


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "readme",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_peak_rss_is_the_commands_own(launcher, tmp):
    # a child forked by this (large) test process would report at least its size
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    *_, rss_mb = launcher.run([sys.executable, "-c", "pass"], run.child_env(), tmp)
    assert rss_mb < own_mb
