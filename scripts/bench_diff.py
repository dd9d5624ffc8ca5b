#!/usr/bin/env python3
"""Compare two BENCH_summary.json files and flag significant shifts.

Usage:
    scripts/bench_diff.py BASELINE.json CURRENT.json
        [--rel-tol R] [--skip-bench NAME]...

Both inputs are vcl-bench-summary-v1 documents (scripts/collect_bench.sh
output). Cells are matched positionally per (bench, table title, row, col):

* Stat cells ({mean, ci95, n}, written when a bench ran with --reps > 1)
  are flagged when the 95% confidence intervals do NOT overlap:
  |mean_a - mean_b| > ci95_a + ci95_b. Overlapping CIs are treated as
  statistical noise.
* Tail cells ({p50, p99, p999, n}, quantile-sketch percentiles) carry no
  CI; each percentile is compared with --rel-tol (default 0: exact, which
  is correct because sketch merges are bit-identical per config+seed).
  A tail cell against a baseline written before tail cells existed (plain
  or stat cell there) is flagged as a cell-type change, never a KeyError.
* Plain numeric cells are compared exactly by default (single-rep runs are
  deterministic, so any drift is a real behavior change); --rel-tol R
  loosens this to a relative tolerance for machine-dependent numbers.
* String cells must match exactly (they are labels).

Structural drift (benches/tables/rows added or removed) is reported but
only counts as a failure when something present in BOTH documents moved.
--skip-bench NAME (repeatable) excludes a bench entirely — e.g. pass
`--skip-bench bench_crypto_micro` when the two summaries come from
different machines, since its wall-clock cells are hardware-dependent.

Each bench's "wall_s" scalar (host wall time of the whole bench) is
listed in a closing informational section with its current/baseline
ratio. It never changes the exit status: the host is shared and noisy,
and the baseline was recorded elsewhere.

A bench present in the baseline but absent from the current summary is an
error, not a note: it usually means the bench was dropped from
collect_bench.sh (or its binary failed to build) and the regression gate
would silently stop covering it. This exits 3 so CI can distinguish
"coverage shrank" from "numbers moved". Benches only in the current
summary stay informational — new coverage is added via a baseline refresh.

Exit status: 0 = no significant differences, 1 = differences found,
2 = bad invocation/unreadable input, 3 = a baseline bench is missing
from the current summary (coverage shrank).
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if doc.get("schema") != "vcl-bench-summary-v1":
        sys.exit(f"error: {path}: not a vcl-bench-summary-v1 document")
    return {b["bench"]: b for b in doc["benches"]}


def is_stat(cell):
    return isinstance(cell, dict) and "mean" in cell


def is_tail(cell):
    return isinstance(cell, dict) and "p50" in cell


def fmt(cell):
    if is_stat(cell):
        return f"{cell['mean']:.6g} ±{cell['ci95']:.6g} (n={cell['n']})"
    if is_tail(cell):
        return (f"p50={cell['p50']:.6g} p99={cell['p99']:.6g} "
                f"p999={cell['p999']:.6g} (n={cell['n']})")
    return repr(cell)


def rel_close(a, b, rel_tol):
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    return rel_tol > 0 and scale > 0 and abs(a - b) / scale <= rel_tol


def diff_cells(a, b, rel_tol):
    """Returns a reason string when the cells differ significantly."""
    if is_tail(a) != is_tail(b):
        # One side predates tail cells (old baseline) or dropped them:
        # structural, not a latency regression — surfaced via the caller's
        # notes path, never a crash on the missing keys.
        return ("tail cell vs non-tail cell "
                "(baseline predates sketch percentiles?)")
    if is_tail(a):
        for key in ("p50", "p99", "p999"):
            if not rel_close(a[key], b[key], rel_tol):
                return (f"{key} differs (|Δ| = {abs(a[key] - b[key]):.6g})")
        return None
    if is_stat(a) != is_stat(b):
        return "stat cell vs plain cell (reps mismatch between runs?)"
    if is_stat(a):
        delta = abs(a["mean"] - b["mean"])
        if delta > a["ci95"] + b["ci95"]:
            return f"CIs do not overlap (|Δmean| = {delta:.6g})"
        return None
    if isinstance(a, str) or isinstance(b, str):
        return None if a == b else "label changed"
    if rel_close(a, b, rel_tol):
        return None
    return f"values differ (|Δ| = {abs(a - b):.6g})"


def wall_report(base, cur):
    """Lines of the informational wall_s section (benches in both)."""
    lines = []
    for name in sorted(set(base) & set(cur)):
        b = base[name].get("scalars", {}).get("wall_s")
        c = cur[name].get("scalars", {}).get("wall_s")
        if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
            continue
        ratio = f"{c / b:.2f}x" if b > 0 else "n/a"
        lines.append(f"  {name:<32} {b:>10.3f} {c:>10.3f}   {ratio}")
    return lines


def main():
    parser = argparse.ArgumentParser(
        description="Flag significant shifts between two bench summaries.")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--rel-tol", type=float, default=0.0,
                        help="relative tolerance for plain numeric cells "
                             "(default 0: exact)")
    parser.add_argument("--skip-bench", action="append", default=[],
                        metavar="NAME",
                        help="exclude a bench (repeatable); use for "
                             "machine-dependent benches across hardware")
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    for name in args.skip_bench:
        base.pop(name, None)
        cur.pop(name, None)

    flagged = []
    notes = []
    missing = sorted(set(base) - set(cur))
    for name in sorted(set(cur) - set(base)):
        notes.append(f"bench {name}: only in current")

    for name in sorted(set(base) & set(cur)):
        btables = {t["title"]: t for t in base[name]["tables"]}
        ctables = {t["title"]: t for t in cur[name]["tables"]}
        for title in sorted(set(btables) - set(ctables)):
            notes.append(f"{name}: table {title!r} only in baseline")
        for title in sorted(set(ctables) - set(btables)):
            notes.append(f"{name}: table {title!r} only in current")
        for title in sorted(set(btables) & set(ctables)):
            bt, ct = btables[title], ctables[title]
            if bt["columns"] != ct["columns"]:
                notes.append(f"{name}: table {title!r} columns changed")
                continue
            if len(bt["rows"]) != len(ct["rows"]):
                notes.append(f"{name}: table {title!r} row count "
                             f"{len(bt['rows'])} -> {len(ct['rows'])}")
            for r, (brow, crow) in enumerate(zip(bt["rows"], ct["rows"])):
                for c, (bc, cc) in enumerate(zip(brow, crow)):
                    reason = diff_cells(bc, cc, args.rel_tol)
                    if reason:
                        col = bt["columns"][c] if c < len(bt["columns"]) \
                            else f"col{c}"
                        flagged.append(
                            f"{name} / {title!r} row {r} [{col}]: "
                            f"{fmt(bc)} -> {fmt(cc)} — {reason}")

    for note in notes:
        print(f"note: {note}")
    walls = wall_report(base, cur)
    if walls:
        print("wall_s, informational (never affects the exit status):")
        print(f"  {'bench':<32} {'baseline':>10} {'current':>10}   "
              f"current/baseline")
        for line in walls:
            print(line)
        print()
    if missing:
        for name in missing:
            print(f"error: bench {name}: present in baseline but missing "
                  f"from current summary — was it removed from "
                  f"collect_bench.sh, or did its binary fail to build?")
        print(f"\n{len(missing)} baseline bench(es) missing from the "
              f"current summary; the regression gate no longer covers "
              f"them (exit 3)")
        return 3
    if flagged:
        print(f"\n{len(flagged)} significant difference(s):")
        for f in flagged:
            print(f"  {f}")
        return 1
    print("no significant differences"
          + (f" ({len(notes)} structural note(s))" if notes else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
