#!/usr/bin/env python3
"""Paired comparison of two checkouts on one workload.

    python3 perfbench/compare.py --parent DIR --change DIR --workload NAME
                                 [--pairs 10] [--seconds S] [--seed N] [--trace 0|1]

Runs perfbench/run.py in both checkouts, alternating which side goes first,
with seed N + i for pair i on both sides.  Refuses to compare runs stamped
with different hosts or build types.  For every metric it reports each
side's median and quartiles, the share of pairs the change won (ties count
for neither side) and a verdict:

  improved    the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread, or every change
              run beat every parent run
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (per-layer metrics, which
              have no bound: the change lost 9 of 10 pairs by more than the
              parent's quartile spread)
  unresolved  the parent's quartile spread is wider than the bound, or the
              change failed more runs than the parent (no gain counts then)
  unchanged   otherwise
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import benchlib


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """+1 when a is better than b, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (a > b) == (direction == "higher") else -1


def verdict(parent, change, direction, bound=None):
    """Verdict for one metric from paired samples (parent[i], change[i])."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    p_spread = p_q3 - p_q1
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction) > 0)
    losses = sum(1 for p, c in zip(parent, change) if better(c, p, direction) < 0)
    n = len(parent)
    if direction == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if all_better or (wins >= 0.9 * n and abs(c_med - p_med) > p_spread
                      and better(c_med, p_med, direction) > 0):
        return "improved"
    if bound is None:
        if losses >= 0.9 * n and abs(c_med - p_med) > p_spread:
            return "worse"
        return "unchanged"
    if p_med != 0 and p_spread / abs(p_med) > bound:
        return "unresolved"
    worse_by = (p_med - c_med) if direction == "higher" else (c_med - p_med)
    if p_med != 0 and worse_by / abs(p_med) > bound:
        return "worse"
    return "unchanged"


def run_side(checkout, args, seed):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    record_line = [l for l in lines if l.startswith("record: ")][-1]
    with open(os.path.join(checkout, record_line[len("record: "):])) as f:
        record = json.load(f)
    return record, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("a comparison needs at least 10 pairs")
    spec = benchlib.load_spec(os.path.abspath(args.change))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    samples = {"parent": [], "change": []}
    stamps = {}
    failed = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            record, result = run_side(sides[side], args, args.seed + i)
            why = benchlib.comparable(stamps.setdefault("first", record), record)
            if why:
                print("refusing to compare: %s" % why, file=sys.stderr)
                return 2
            failed[side] += result["failed"]
            samples[side].append({k: v["value"] for k, v in result["metrics"].items()})
        print("pair %d done" % (i + 1), file=sys.stderr, flush=True)

    print("workload %s, %d pairs, %g s per run, %s" % (
        args.workload, args.pairs, args.seconds, "traced" if args.trace else "untraced"))
    print("failed runs: parent %d, change %d" % (failed["parent"], failed["change"]))
    print("%-32s %-32s %-32s %6s  %s" % ("metric", "parent q1/median/q3",
                                        "change q1/median/q3", "wins", "verdict"))
    more_failures = failed["change"] > failed["parent"]
    for m in metrics:
        name = m["name"]
        p = [s[name] for s in samples["parent"]]
        c = [s[name] for s in samples["change"]]
        wins = sum(1 for a, b in zip(p, c) if better(b, a, m["better"]) > 0)
        v = verdict(p, c, m["better"], m.get("bound"))
        if v == "improved" and more_failures:
            v = "unresolved (more failed runs than the parent)"
        fmt = lambda q: "%.4g/%.4g/%.4g" % q
        print("%-32s %-32s %-32s %5.0f%%  %s" % (
            name, fmt(quartiles(p)), fmt(quartiles(c)), 100.0 * wins / len(p), v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
