"""End-to-end benchmark of the qetude command line.

Usage (from the root of a source tree):

    python3 perfbench/run.py --workload readme --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each workload (perfbench/workloads.json) is a list of CLI commands.  One pass
runs every command of the list, in an order drawn from --seed, each as a fresh
``python -m qetude.cli`` process against this tree's src/, one at a time (a
closed loop with one client): every real invocation pays interpreter start-up,
imports and a cold determinant memo.  The first pass always runs whole;
later passes run while their commands fit in --seconds, the last possibly in
part, and times are taken per command as the median over its runs.  Each
command's exit code and stdout SHA-256 are checked against
perfbench/golden.json; a mismatch counts as a failed command and the run goes
on.

A line before the result names each metric with its unit, plus fail_ratio
(failed commands / commands attempted), which the result line carries as
"failed" and "attempted".

With --trace 0 the result reports the end-to-end metrics:
  wall_s       wall seconds of one pass: the sum of the commands' median times
  cpu_s        the same for user+sys CPU seconds of the commands (os.wait4)
  setup_s      median wall seconds of a fresh interpreter importing qetude.cli
  peak_rss_mb  largest maximum resident set size of any command in the pass
               (commands start from perfbench/spawn.py, which says why)
The three times are scaled to a fixed machine speed.  On a shared host the
speed a process gets swings by up to 2x as other tenants load the cores, in
spells of seconds, and the share of slow spells differs from one minute to
the next, so raw medians of a 30-second run still spread by 10 to 25%.
reference_task() is fixed pure-Python work that runs no qetude code; it is
timed before the first command and after each command of a pass, and every
sample (a command run or the fresh import before it) is multiplied by
REFERENCE_S over the mean of the two timings around it.  A time metric so
reads as the seconds the commands take where reference_task() takes
REFERENCE_S.  Commands of a few seconds track the timings best, so the
univariate, multivariate and series commands are sized to a few seconds or
less.  The line before the result also gives the unscaled wall_s and
setup_s.  Per-layer times (--trace 1) are not scaled.
With --trace 1 each command runs twice in a row, plain and then through
perfbench/shim.py, which times the entry points of every layer; the result
reports calls and self time per entry point and the other per_layer_names(),
among them trace.overhead_s, the traced minus the plain wall time of a pass.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 whenever that line is printed; a tree
without qetude sources to measure gets an error message and exit code 1.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import shim

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_BASE = ROOT / ".perfbench_tmp"
COMMAND_TIMEOUT_S = 120
# Speed the time metrics are scaled to: about the median time of
# reference_task() on a shared 2-vCPU cloud host, so that scaled times read
# close to wall seconds there.
REFERENCE_S = 0.12
VERBS = ["det", "closed-form", "guess", "verify", "series", "sequence",
         "rr-check", "reproduce"]


def load_json(name):
    with open(HERE / name) as f:
        return json.load(f)


def command_key(argv):
    return " ".join(argv)


def child_env(cache_dir=None):
    """The caller's environment with this tree's src/ first on the path and
    the result cache off unless a cache directory is given."""
    env = dict(os.environ)
    env.pop("QETUDE_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["QETUDE_CACHE"] = str(cache_dir)
    return env


class Launcher:
    """Runs measured commands through perfbench/spawn.py, a small helper
    process, so that their peak resident sizes are their own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, cmd, env, tmp):
        """Run cmd to completion; return (exit code, stdout SHA-256, wall s,
        cpu s, peak resident MB)."""
        stdout, stderr = tmp / "stdout.bin", tmp / "stderr.txt"
        self.proc.stdin.write(json.dumps({"cmd": cmd, "env": env, "stdout": str(stdout),
                                          "stderr": str(stderr),
                                          "timeout": COMMAND_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench/spawn.py exited")
        r = json.loads(reply)
        if r["code"] != 0:
            tail = stderr.read_bytes()[-400:].decode(errors="replace")
            print(f"exit {r['code']} from {cmd[1:]}: {tail}", file=sys.stderr)
        digest = hashlib.sha256(stdout.read_bytes()).hexdigest()
        return r["code"], digest, r["wall_s"], r["cpu_s"], r["rss_mb"]


_REFERENCE_DATA = []  # built on first use, after perfbench/spawn.py has started


def reference_data():
    if not _REFERENCE_DATA:
        rng = random.Random(1)
        _REFERENCE_DATA.append([rng.getrandbits(200) for _ in range(1_000_000)])
        _REFERENCE_DATA.append([rng.randrange(1_000_000) for _ in range(150_000)])
    return _REFERENCE_DATA


def reference_task(table, indices):
    """Fixed pure-Python work that runs no qetude code, of the two kinds
    qetude's commands do: dense products of big integers summed into a dict,
    which keep the processor busy, and reads of big integers scattered over
    about 60 MB, which wait on memory.  Other tenants of a host slow the two
    kinds by different amounts, and the commands mix them: the readme
    workload's verify, for one, follows the second more than the first."""
    a = [3 ** (i + 60) for i in range(48)]
    for _ in range(70):
        acc = {}
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                acc[i + j] = acc.get(i + j, 0) + x * y
    total = 0
    for i in indices:
        total += table[i]
    return total


def time_reference():
    data = reference_data()
    t0 = time.perf_counter()
    reference_task(*data)
    return time.perf_counter() - t0


def check_tree():
    """Fail unless this tree's qetude is the one a child process imports."""
    if not (SRC / "qetude" / "cli.py").is_file():
        raise SystemExit(f"error: no qetude sources under {SRC.name}/ of the "
                         "tree that holds perfbench/; run from a source checkout")
    probe = subprocess.run(
        [sys.executable, "-c", "import qetude, qetude.cli; print(qetude.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
    path = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or SRC.resolve() not in path.parents:
        raise SystemExit(f"error: qetude imported from {path}, not from {SRC}: "
                         f"{probe.stderr[-400:]}")


@contextlib.contextmanager
def scratch_dir():
    """A private directory inside the tree, removed with everything in it."""
    TMP_BASE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_BASE))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_BASE.rmdir()  # left in place while another run uses it


def provenance():
    with open("/proc/loadavg") as f:
        loadavg = f.read().split()[:3]
    return {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "loadavg": loadavg}


class Pass:
    """One run through a workload's command list, possibly cut short by the
    run's deadline."""

    def __init__(self):
        self.failed = []
        # (key, argv, wall s, cpu s, rss MB, trace dict or None, scale)
        self.records = []
        self.setup_walls = []  # (fresh `import qetude.cli` wall s, scale)


def run_pass(launcher, commands, order, golden, tmp, modes=("plain",), deadline=None,
             expected=None):
    """Run commands in the given order, each once per mode ("plain" or
    "traced") back to back; return one Pass per mode.

    Per mode, the commands marked "cache" share a fresh cache directory,
    deleted when the pass ends.  A command's key is its text and how many
    times it already ran in this pass, so the first of repeated cached
    commands (the miss) is told apart from the others (the hits).  A fresh
    import timed before each command gives a set-up sample, so that the
    samples span the pass as the commands do.  Each command's samples carry
    the scale to reference speed from the reference timings around it.  With
    a deadline, the pass stops before a command whose expected seconds would
    end after it."""
    passes = {mode: Pass() for mode in modes}
    probe_cmd = [sys.executable, "-c", "import qetude.cli"]
    cache_envs = {mode: child_env(tempfile.mkdtemp(prefix="cache-", dir=tmp))
                  for mode in modes}
    plain_env = child_env()
    trace_path = tmp / "spans.json"
    prefixes = {"plain": [sys.executable, "-m", "qetude.cli"],
                "traced": [sys.executable, str(HERE / "shim.py"), str(trace_path)]}
    seen = collections.Counter()
    before = time_reference()
    try:
        for i in order:
            argv = commands[i]["argv"]
            key = (command_key(argv), seen[command_key(argv)])
            seen[key[0]] += 1
            if deadline is not None and time.perf_counter() + expected[key] > deadline:
                break
            code, _, setup_wall, _, _ = launcher.run(probe_cmd, plain_env, tmp)
            if code != 0:
                raise SystemExit("error: importing qetude.cli failed")
            golden_run = golden.get(key[0])
            runs = []
            for mode in modes:
                env = cache_envs[mode] if commands[i].get("cache") else plain_env
                code, digest, wall, cpu, rss = launcher.run(prefixes[mode] + argv, env, tmp)
                if golden_run is None or (code, digest) != (golden_run["exit"],
                                                            golden_run["sha256"]):
                    passes[mode].failed.append((argv, code, digest))
                trace = None
                if mode == "traced" and trace_path.exists():
                    with open(trace_path) as f:
                        trace = json.load(f)
                    trace_path.unlink()
                runs.append((mode, key, argv, wall, cpu, rss, trace))
            after = time_reference()
            scale = REFERENCE_S / ((before + after) / 2)
            before = after
            passes[modes[0]].setup_walls.append((setup_wall, scale))
            for mode, *record in runs:
                passes[mode].records.append((*record, scale))
    finally:
        for env in cache_envs.values():
            shutil.rmtree(env["QETUDE_CACHE"], ignore_errors=True)
    return [passes[mode] for mode in modes]


def per_command(passes, field, scaled=True):
    """Median of one record field (2 wall, 3 cpu) per command key, each
    sample scaled to reference speed unless told otherwise."""
    samples = collections.defaultdict(list)
    for p in passes:
        for record in p.records:
            samples[record[0]].append(record[field] * (record[-1] if scaled else 1))
    return {key: statistics.median(v) for key, v in samples.items()}


# -- per-layer metrics from spans ----------------------------------------------

def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in shim.span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"cli.{verb}.wall_s", "s") for verb in VERBS]
    out += [("cli.cache.hits", "count"), ("cli.cache.misses", "count"),
            ("discovery.ansatz.fits_per_term", "ratio"),
            ("lehmer.det_recurrence.result_terms", "count"),
            ("lehmer.det_recurrence.coeff_bits", "bits"),
            ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
            ("trace.coverage_min", "ratio"), ("trace.absent", "count")]
    return out


def span_totals(trace):
    """calls and self seconds per span name, seconds covered by outermost
    spans, and the command's in-process run time."""
    spans = trace["spans"]
    names, name_id = spans["names"], spans["name_id"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    covered = 0.0
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            child[p] += dur[i]
        else:
            covered += dur[i]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    for i, nid in enumerate(name_id):
        calls[names[nid]] += 1
        self_s[names[nid]] += dur[i] - child[i]
    run_s = trace["run"][1] - trace["run"][0]
    return calls, self_s, covered, run_s


def layer_metrics(traced_pass, overhead_s):
    """Every per-layer metric of one traced pass."""
    m = {name: 0 for name, _ in per_layer_names()}
    counters = {"cache_hits": 0, "cache_misses": 0, "ansatz_terms": 0}
    covered_total = run_total = 0.0
    coverages = []
    largest = (0, 0, 0)
    absent = set()
    for _, argv, wall, _, _, trace, _ in traced_pass.records:
        m[f"cli.{argv[0]}.wall_s"] += wall
        if trace is None:
            continue
        calls, self_s, covered, run_s = span_totals(trace)
        for name in calls:
            m[f"{name}.calls"] += calls[name]
            m[f"{name}.self_s"] += self_s[name]
        covered_total += covered
        run_total += run_s
        coverages.append((run_s, covered / run_s if run_s > 0 else 1.0))
        absent.update(trace["absent"])
        c = trace["counters"]
        for key in counters:
            counters[key] += c[key]
        if "det_n" in c and c["det_n"] > largest[0]:
            largest = (c["det_n"], c["det_terms"], c["det_coeff_bits"])
    m["cli.cache.hits"] = counters["cache_hits"]
    m["cli.cache.misses"] = counters["cache_misses"]
    fits = m["multi.interpolate_in_N.calls"]
    m["discovery.ansatz.fits_per_term"] = (fits / counters["ansatz_terms"]
                                           if counters["ansatz_terms"] else 0)
    m["lehmer.det_recurrence.result_terms"] = largest[1]
    m["lehmer.det_recurrence.coeff_bits"] = largest[2]
    m["trace.overhead_s"] = overhead_s
    m["trace.coverage"] = covered_total / run_total if run_total > 0 else 0
    long = [c for r, c in coverages if r > 1.0] or [c for _, c in coverages]
    m["trace.coverage_min"] = min(long) if long else 0
    m["trace.absent"] = len(absent)
    if absent:
        print(f"absent entry points: {sorted(absent)}", file=sys.stderr)
    return m


# -- runs ----------------------------------------------------------------------

def run_workload(launcher, name, seed, seconds, trace, workloads, golden, tmp):
    """Run one workload for about `seconds`; return (attempted, failed, metrics).

    The first pass always runs whole; later ones run while their commands fit
    in `seconds`, the last one possibly in part.  A traced run makes one pass,
    each command plain and then traced."""
    commands = workloads[name]["commands"]
    rng = random.Random(f"{name}:{seed}")
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while not plain or (not trace and time.perf_counter() < deadline):
        order = rng.sample(range(len(commands)), len(commands))
        if trace:
            p, t = run_pass(launcher, commands, order, golden, tmp, ("plain", "traced"))
            traced.append(t)
        else:
            expected = None
            if plain:
                setup = statistics.median(w for p in plain for w, _ in p.setup_walls)
                expected = {k: w + setup + REFERENCE_S
                            for k, w in per_command(plain, 2, False).items()}
            p, = run_pass(launcher, commands, order, golden, tmp,
                          deadline=deadline if plain else None, expected=expected)
        plain.append(p)
        if len(p.records) < len(commands):
            break
    done = plain + traced
    attempted = sum(len(p.records) for p in done)
    failures = [f for p in done for f in p.failed]
    for argv, code, digest in failures:
        print(f"FAIL {command_key(argv)}: exit {code}, stdout sha256 {digest}",
              file=sys.stderr)
    setups = [w for p in plain for w in p.setup_walls]
    e2e = {"wall_s": (sum(per_command(plain, 2).values()), "s"),
           "cpu_s": (sum(per_command(plain, 3).values()), "s"),
           "setup_s": (statistics.median(w * scale for w, scale in setups), "s"),
           "peak_rss_mb": (max(r[4] for p in plain for r in p.records), "MB")}
    print(f"{name}: " + "  ".join(f"{k}={v:.4f} {u}" for k, (v, u) in e2e.items())
          + f"  fail_ratio={len(failures) / attempted:.4f} ratio ({len(failures)}/{attempted})"
          + f"  commands_run={sum(len(p.records) for p in plain)}"
          + f"  unscaled: wall_s={sum(per_command(plain, 2, False).values()):.4f} s"
          + f" setup_s={statistics.median(w for w, _ in setups):.4f} s"
          + f" speed={statistics.median(scale for _, scale in setups):.3f}")
    if not trace:
        return attempted, len(failures), e2e
    overhead = sum(r[2] for r in traced[0].records) - sum(r[2] for r in plain[0].records)
    units = dict(per_layer_names())
    layers = {k: (v, units[k]) for k, v in layer_metrics(traced[0], overhead).items()}
    print(f"{name} trace: overhead_s={overhead:.4f}  "
          f"coverage={layers['trace.coverage'][0]:.4f}  "
          f"coverage_min={layers['trace.coverage_min'][0]:.4f}")
    return attempted, len(failures), layers


def main(argv=None):
    workloads = load_json("workloads.json")["workloads"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(workloads) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    check_tree()
    golden = load_json("golden.json")
    names = list(workloads) if args.workload == "all" else [args.workload]
    print("provenance start: " + json.dumps(provenance()))
    attempted = failed = 0
    metrics = {}
    with scratch_dir() as tmp, Launcher() as launcher:
        for name in names:
            a, f, m = run_workload(launcher, name, args.seed, args.seconds, args.trace,
                                   workloads, golden, tmp)
            attempted += a
            failed += f
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print("provenance end: " + json.dumps(provenance()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
