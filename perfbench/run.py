#!/usr/bin/env python3
"""Build and run the csobj benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the workload. Prints a provenance record line and, last, the result line
{"correct", "attempted", "failed", "metrics"}. Exits 0 only when every
check passed; exits non-zero without a result line when the build fails
or the benchmark's output is malformed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("stack-solo", "stack-contended", "map-mixed", "bag-contended")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
HERE = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds incrementally. Returns the binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "csbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "csbench")


def steal_ticks():
    """Hypervisor steal ticks summed over all CPUs, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


def source_digest(root):
    """sha256 over the library and benchmark sources the binary is built
    from, so a record names its code even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def valid_result(res):
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return False
    if not isinstance(res["correct"], bool):
        return False
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            return False
    if res["attempted"] < 1 or not isinstance(res["metrics"], dict):
        return False
    return all(isinstance(m, dict) and set(m) == {"value", "unit"}
               and isinstance(m["value"], (int, float))
               for m in res["metrics"].values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    root = os.path.dirname(HERE)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, f"spans-{args.workload}.csv")]
    steal0 = steal_ticks()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark timed out")
        return 1
    steal1 = steal_ticks()
    sys.stderr.write(proc.stderr)

    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, TypeError, ValueError):
        log("perfbench: malformed benchmark output:\n" + proc.stdout)
        return 1
    if proc.returncode not in (0, 1) or not valid_result(result):
        log(f"perfbench: benchmark exited {proc.returncode}:\n" + proc.stdout)
        return 1

    record.update({
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "steal_ticks": (steal1 - steal0
                        if steal0 is not None and steal1 is not None
                        else None),
    })
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        log("perfbench: checks failed: " + "; ".join(record.get("errors", [])))
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
