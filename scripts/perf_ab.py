#!/usr/bin/env python3
"""Paired A/B benchmark of the working tree against a git ref.

    scripts/perf_ab.py <ref> [--workloads a,b,...] [--seeds 1,2,...]
        [--seconds S] [--trace 0|1] [--dir DIR]

Run from the root of a checkout. <ref> (a commit, branch or tag) is
exported with `git archive` into DIR (default: a temporary directory,
removed at the end), so the parent side is built from its committed files
only. Both sides then run perfbench/run.py in pairs: for every workload
and seed, one parent run and one run of the working tree; the parent goes
first in the first pair, the change in the second, and so on.
perfbench/ is only called, never changed; each side builds its own copy
on first use (.bench_build/ under its root).

For every workload the script prints, per metric of the chosen mode, each
side's median and quartiles over the pairs, the change/parent ratio of the
medians, and in how many pairs the change was better (the direction comes
from BENCHMARK.json; ties count for neither side). It exits 1 if any
pair's sim_digest differs, which means the change moved the simulation,
and 2 on a usage, build or run error.

The defaults are the benchmark's paired protocol: seeds 1 to 10, one
pair each, runs of BENCHMARK.json's run_seconds (30) and --trace 0. This
is a hand tool, too slow for CI: perfbench calibrates a run to last about
--seconds on the seed code (faster code finishes sooner), so after the
builds of both sides the defaults take up to half an hour (about 17
minutes on a 4-vCPU host at the time of writing). Give --dir to keep the
exported parent and its build for the next call; it is reused when it
holds the same commit.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["city_dynamic", "highway_rsu", "city_dependable"]
STAMP = ".perf_ab_commit"


def die(message):
    print(f"perf_ab: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        die(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def export(ref, dest):
    """Exports the committed tree of `ref` into `dest` unless it is there."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    stamp = dest / STAMP
    if stamp.is_file() and stamp.read_text().strip() == commit:
        return commit
    if dest.exists() and any(dest.iterdir()):
        die(f"{dest} is not empty and holds no export of {commit[:12]}")
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             stdout=subprocess.PIPE)
    if archive.returncode != 0:
        die(f"git archive {commit} failed")
    with tempfile.TemporaryFile() as tar:
        tar.write(archive.stdout)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as tf:
            tf.extractall(dest)
    stamp.write_text(commit + "\n")
    return commit


def run(root, workload, seed, seconds, trace):
    """One perfbench run; returns (metrics dict, sim_digest)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        die(f"{' '.join(cmd)} in {root} exited {proc.returncode}")
    digest = next((line.split()[1] for line in lines
                   if line.startswith("sim_digest ")), None)
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    return metrics, digest


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def directions(trace):
    return {m["name"]: m["better"]
            for m in benchmark()["per_layer" if trace else "end_to_end"]}


def summary(values):
    """'median [q1, q3]' of a list (quartiles need two values)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, f"{median:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def report(workload, pairs, better):
    print(f"\n== {workload}: {len(pairs)} pairs; median [quartiles]")
    print(f"{'metric':32} {'parent':>32} {'change':>32} {'ratio':>6} "
          f"{'better':>6}")
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        mp, parent_text = summary(parent)
        mc, change_text = summary(change)
        ratio = f"{mc / mp:6.3f}" if mp else "     -"
        wins = sum((c > p) if direction == "higher" else (c < p)
                   for p, c in zip(parent, change))
        print(f"{name:32} {parent_text:>32} {change_text:>32} {ratio} "
              f"{wins:>3}/{len(pairs)}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].strip(),
        epilog="Too slow for CI: every run takes up to about --seconds, plus the "
               "build of both sides. Exits 1 if any pair's sim_digest "
               "differs.")
    parser.add_argument("ref", help="git ref of the parent side")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default=",".join(map(str, range(1, 11))),
                        help="one pair per seed (default: 1 to 10)")
    parser.add_argument("--seconds", type=float,
                        default=benchmark()["run_seconds"],
                        help="length of every run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", help="where to export <ref> (kept)")
    args = parser.parse_args()

    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not workloads or not seeds:
        die("need at least one workload and seed")

    tmp = None
    if args.dir:
        parent_root = Path(args.dir).resolve()
    else:
        tmp = tempfile.mkdtemp(prefix="perf_ab_")
        parent_root = Path(tmp)
    try:
        commit = export(args.ref, parent_root)
        print(f"parent {args.ref} = {commit[:12]} in {parent_root}; "
              f"change = working tree at {ROOT}", flush=True)
        better = directions(args.trace)
        headline = next(iter(better))
        digest_mismatch = False
        for workload in workloads:
            pairs = []
            for seed in seeds:
                sides = {}
                order = ("parent", "change")
                if len(pairs) % 2:
                    order = order[::-1]
                for side in order:
                    root = parent_root if side == "parent" else ROOT
                    sides[side] = run(root, workload, seed, args.seconds,
                                      args.trace)
                (p, pd), (c, cd) = sides["parent"], sides["change"]
                same = pd == cd
                digest_mismatch |= not same
                print(f"{workload} seed {seed} ({order[0]} first): "
                      f"{headline} {p[headline]:.6g} -> "
                      f"{c[headline]:.6g}  sim_digest "
                      f"{'same' if same else 'DIFFERS'}", flush=True)
                pairs.append((p, c))
            report(workload, pairs, better)
    finally:
        if tmp:
            shutil.rmtree(tmp, ignore_errors=True)
    if digest_mismatch:
        print("\nperf_ab: sim_digest differs in at least one pair",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
