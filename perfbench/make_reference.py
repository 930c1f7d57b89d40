#!/usr/bin/env python3
"""Writes perfbench/reference.json: the simulated-statistics fingerprint
of sub-seed 0 for seeds 1-10 of every workload.

    python3 perfbench/make_reference.py

run.py fails every run of a listed seed whose fingerprint differs.
Regenerate only when a change is meant to alter the simulated executions.
"""

import json
import os
import subprocess
import sys

import benchlib

SEEDS = range(1, 11)


def main():
    bdir = benchlib.build()
    workdir = os.path.join(benchlib.build_root(), "perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    refs = {}
    for w in benchlib.load_spec()["workloads"]:
        refs[w["name"]] = {}
        for seed in SEEDS:
            out = subprocess.run(
                [os.path.join(bdir, "tbcs_perfbench"), "--workload", w["name"],
                 "--seed", str(seed), "--seconds", "0", "--trace", "0",
                 "--min-runs", "1", "--workdir", workdir],
                stdout=subprocess.PIPE, text=True, check=True)
            record = json.loads(out.stdout.strip().splitlines()[-1])
            if record["failed"]:
                print("%s seed %d failed: %s" % (w["name"], seed, record["failures"]),
                      file=sys.stderr)
                return 1
            refs[w["name"]][str(seed)] = record["fingerprint"]
            print("%s seed %d" % (w["name"], seed), file=sys.stderr, flush=True)
    with open(benchlib.REFERENCE_PATH, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
