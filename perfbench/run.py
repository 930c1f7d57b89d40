#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the simulator and the benchmark binary from this checkout's sources
(Release, into .bench_build/), runs the workload for S seconds, checks every
run's output, stamps host and build, and prints each metric by name with its
unit.  The last line of standard output is the result as one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics untraced (--trace 0), the per-layer metrics traced (--trace 1).
failed / attempted is the failed_share.  The full stamped record is also
saved under .bench_build/perfbench-results/ for compare.py.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import benchlib

RUN_TIMEOUT_S = 170


def check_reference(record):
    """Failures from comparing the record's fingerprint with the stored
    reference for this workload and seed, if there is one."""
    try:
        with open(benchlib.REFERENCE_PATH) as f:
            refs = json.load(f)
    except OSError:
        return []
    ref = refs.get(record["workload"], {}).get(str(record["seed"]))
    if ref is None:
        return []
    if ref != record["fingerprint"]:
        return ["fingerprint %s differs from the stored reference %s"
                % (json.dumps(record["fingerprint"]), json.dumps(ref))]
    return []


def run_workload(args):
    spec = benchlib.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        benchlib.log("unknown workload %r; expected one of %s" % (args.workload, names))
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = benchlib.build()
    workdir = os.path.join(benchlib.build_root(), "perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(bdir, "tbcs_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        benchlib.log("tbcs_perfbench exited with %d" % proc.returncode)
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["host"] = benchlib.host_stamp()
    record["build"]["git_sha"] = benchlib.git_sha()
    record["build"]["source_digest"] = benchlib.source_digest()
    record["seconds"] = args.seconds

    ref_failures = check_reference(record)
    if ref_failures:
        # Every run reproduced the first one, so all of them are wrong.
        record["failed"] = record["attempted"]
        record["failures"] = ref_failures + record["failures"]

    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        benchlib.log("tbcs_perfbench did not report %s" % missing)
        return 1
    metrics = {m["name"]: record["metrics"][m["name"]] for m in wanted}
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            benchlib.log("unit mismatch for %s" % m["name"])
            return 1

    host, build = record["host"], record["build"]
    print("host: %s, %d cpus, id %s" % (host["cpu_model"], host["nproc"], host["host_id"]))
    print("build: %s, %s, git %s, sources %s" % (build["type"], build["compiler"],
                                                 build["git_sha"], build["source_digest"]))
    print("workload: %s, seed %d, %g s%s" % (args.workload, args.seed, args.seconds,
                                              ", traced" if args.trace else ""))
    for note in record["notes"]:
        print("  " + note)
    for name, m in metrics.items():
        print("  %-32s %.6g %s" % (name, m["value"], m["unit"]))
    share = record["failed"] / max(record["attempted"], 1)
    print("  %-32s %.6g share (%d of %d runs)" % ("failed_share", share,
                                                  record["failed"], record["attempted"]))
    for why in record["failures"]:
        print("  FAILED: " + why)

    results = os.path.join(benchlib.build_root(), "perfbench-results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s.seed%d.trace%d.%d.json"
                        % (args.workload, args.seed, args.trace, time.time_ns()))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print("record: %s" % os.path.relpath(path, benchlib.ROOT))

    result = {"correct": record["failed"] == 0,
              "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def selftest():
    bdir = benchlib.build(targets=("tbcs_perfbench", "perfbench_tests"))
    rc = subprocess.call([os.path.join(bdir, "perfbench_tests")], stdout=sys.stderr)
    rc2 = subprocess.call([sys.executable, "-m", "unittest", "discover", "-s",
                           benchlib.BENCH_DIR, "-p", "test_*.py"], stdout=sys.stderr)
    return 0 if rc == 0 and rc2 == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        if args.seed < 0 or args.seconds <= 0:
            ap.error("--seed must be >= 0 and --seconds > 0")
        return run_workload(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        benchlib.log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
