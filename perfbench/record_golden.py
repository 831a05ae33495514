"""Record the exit code and stdout SHA-256 of every workload command.

Usage: python3 perfbench/record_golden.py

Writes perfbench/golden.json from the tree this script sits in.  Run it only
when a change is meant to alter CLI output, and review the diff.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    run.check_tree()
    workloads = run.load_json("workloads.json")["workloads"]
    keys = {run.command_key(c["argv"]): c["argv"]
            for w in workloads.values() for c in w["commands"]}
    golden = {}
    with run.scratch_dir() as tmp, run.Launcher() as launcher:
        for key, argv in sorted(keys.items()):
            code, digest, _, _, _ = launcher.run(
                [sys.executable, "-m", "qetude.cli"] + argv, run.child_env(), tmp)
            golden[key] = {"exit": code, "sha256": digest}
            print(f"{code} {digest[:12]} {key}")
    with open(run.HERE / "golden.json", "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
