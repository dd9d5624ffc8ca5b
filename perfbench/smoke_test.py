#!/usr/bin/env python3
"""Smoke self-test of the vcl benchmark.

    python3 perfbench/smoke_test.py

Runs every workload through run.py with a tiny fleet for a few ticks, once
untraced and once traced, and asserts that each run exits 0, passes every
correctness check, prints sim_digest, and ends with a result line that holds
exactly the metrics BENCHMARK.json names for its mode, each with its unit.
It also checks that an unknown workload exits nonzero without a result line.
Takes well under a minute once the build exists.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--vehicles", "40", "--ticks", "5"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *TINY, *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def check(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, (workload, trace, proc.stderr)
    lines = proc.stdout.splitlines()
    assert any(l.startswith("sim_digest ") and len(l.split()[1]) == 64
               for l in lines), "no sim_digest line"
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (workload, trace, set(got) ^ set(want))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    print(f"ok  {workload:16} trace={trace}  "
          f"{len(got)} metrics, {result['attempted']} ops")


def main():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace)
    bad = run("no_such_workload", 0)
    assert bad.returncode != 0 and '"correct"' not in bad.stdout
    print("ok  unknown workload rejected")


if __name__ == "__main__":
    main()
