"""Shared helpers for the benchmark scripts: the build, the host and build
stamp, the spec, and the rule for which records may be compared."""

import hashlib
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
BUILD_TYPE = "Release"


def build_root(root=ROOT):
    # The build tree lives inside the checkout: CARGO_TARGET_DIR when set,
    # else .bench_build.
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build_dir(root=ROOT):
    return os.path.join(build_root(root), "perfbench-" + BUILD_TYPE.lower())


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets=("tbcs_perfbench",), root=ROOT):
    """Configures (once) and builds the benchmark from the checkout's
    sources.  Raises RuntimeError when the sources are missing or the
    build fails; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise RuntimeError("no tbcs sources under %s/src: run from a full checkout" % root)
    bdir = build_dir(root)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", bdir,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            raise RuntimeError("cmake configure failed (exit %d)" % rc)
    jobs = str(min(4, os.cpu_count() or 1))
    for target in targets:
        rc = subprocess.call(["cmake", "--build", bdir, "-j", jobs, "--target", target],
                             stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            raise RuntimeError("build of %s failed (exit %d)" % (target, rc))
    return bdir


def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def host_stamp():
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    mem_kb = ""
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal"):
            mem_kb = line.split()[1]
            break
    nproc = os.cpu_count() or 0
    node = platform.node()
    host_id = hashlib.sha256(
        "|".join([node, cpu, str(nproc), mem_kb]).encode()).hexdigest()[:16]
    return {"nproc": nproc, "cpu_model": cpu or platform.machine(),
            "mem_total_kb": int(mem_kb) if mem_kb else 0, "host_id": host_id}


def source_digest(root=ROOT):
    """sha256 over the simulator and benchmark sources (the checkout may
    not be a git repository, so this identifies the code under test)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root=ROOT):
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def comparable(a, b):
    """Why two stamped records must not be compared, or None."""
    for key in ("host_id", "nproc", "cpu_model"):
        if a["host"].get(key) != b["host"].get(key):
            return "different hosts (%s: %r vs %r)" % (key, a["host"].get(key),
                                                       b["host"].get(key))
    for key in ("type", "compiler"):
        if a["build"].get(key) != b["build"].get(key):
            return "different builds (%s: %r vs %r)" % (key, a["build"].get(key),
                                                        b["build"].get(key))
    return None
