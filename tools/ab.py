#!/usr/bin/env python3
"""Alternating-pair A/B of the serving benchmark. Standard library only.

  python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload W [--pairs N]
                      [--seconds S] [--seed N] [--trace 0|1] [--save PREFIX]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (make the
parent with `git archive`, not a worktree). Each pair runs one trial of
`benchmark/run.py --workload W` in each checkout, and the side that runs
first flips every pair, so neither side always runs second. Each checkout
builds its own `.bench_build/` on its first trial.

For every metric BENCHMARK.json lists (the end-to-end ones, or with
--trace 1 the per-layer ones) it prints, per side, the median [q1, q3] of
the trials, then the change of the medians, the pairs the change won
(lower is better unless the metric says otherwise), and whether the gap
between the medians is wider than the parent's interquartile range. A
gain needs the change to win at least 9 of 10 pairs with a gap wider than
that range; anything less is parity.

--save PREFIX appends each trial's JSON line to PREFIX.parent.jsonl and
PREFIX.change.jsonl (line i of both is pair i). The script itself writes
nothing else (with --trace 1, run.py leaves each trial's trace in the
checkout's git-ignored benchmark/out/). It exits 1 if any trial failed
to run, reported `correct: false`, or reported `failed > 0`.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def trial(checkout, a):
    """One run.py trial in `checkout`; returns its JSON result or None."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"ab.py: no result from {checkout} (exit {p.returncode})\n"
                         f"{p.stderr[-2000:]}")
        return None
    return res


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def report(a, metrics, rows):
    for m in metrics:
        name, better = m["name"], m.get("better", "lower")
        v = {s: [r["metrics"][name]["value"] for r in rows[s]] for s in rows}
        med = {}
        for s in ("parent", "change"):
            med[s] = statistics.median(v[s])
            q1, q3 = quartiles(v[s])
            print(f"{a.workload} {name} {s:6} {med[s]:.5g} [{q1:.5g}, {q3:.5g}]")
        if better == "lower":
            won = sum(c < p for p, c in zip(v["parent"], v["change"]))
        else:
            won = sum(c > p for p, c in zip(v["parent"], v["change"]))
        q1, q3 = quartiles(v["parent"])
        gap = abs(med["change"] - med["parent"])
        pct = (100.0 * (med["change"] - med["parent"]) / med["parent"]
               if med["parent"] else 0.0)
        print(f"{a.workload} {name} change {pct:+.1f} %, won {won}/{len(v['change'])}"
              f" pairs, gap {'>' if gap > q3 - q1 else '<='} parent IQR")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--seed", type=int, default=20130722)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--save")
    a = p.parse_args()
    dirs = {"parent": Path(a.parent).resolve(), "change": Path(a.change).resolve()}
    with open(dirs["change"] / "BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["per_layer" if a.trace else "end_to_end"]
    rows = {"parent": [], "change": []}
    bad = 0
    for i in range(a.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            res = trial(dirs[side], a)
            if res is None or not res.get("correct") or res.get("failed", 1) > 0:
                bad += 1
                print(f"ab.py: pair {i + 1}: {side} trial failed: {res}", file=sys.stderr)
            got[side] = res
        if any(r is None or "metrics" not in r for r in got.values()):
            continue  # keep line i of both sides the same pair
        for side in ("parent", "change"):
            rows[side].append(got[side])
            if a.save:
                with open(f"{a.save}.{side}.jsonl", "a") as f:
                    f.write(json.dumps(got[side]) + "\n")
        print(f"ab.py: pair {i + 1}/{a.pairs} done ({order[0]} first)", file=sys.stderr)
    if rows["parent"]:
        report(a, metrics, rows)
    return 1 if bad or not rows["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
