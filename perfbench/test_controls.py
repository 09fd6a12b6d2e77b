#!/usr/bin/env python3
"""Negative and positive controls for the benchmark's checks.

Usage: python3 perfbench/test_controls.py <path to csbench>

Runs the stack-contended workload briefly on two control objects:
  * broken-drop7, a stack that drops every 7th push while answering Done,
    must fail loudly: a non-zero exit and a result with "correct": false
    and a non-zero failed count;
  * locked, a mutex-backed stack, must pass with no failed op.
Exits 1 if either control misbehaves.
"""

import json
import subprocess
import sys


def run(binary, obj):
    proc = subprocess.run(
        [binary, "--workload", "stack-contended", "--seed", "7",
         "--seconds", "1", "--trace", "0", "--object", obj],
        capture_output=True, text=True, timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


def main():
    binary = sys.argv[1]
    failures = []

    code, res = run(binary, "broken-drop7")
    print(f"broken-drop7: exit {code}, correct {res['correct']}, "
          f"failed {res['failed']} of {res['attempted']}")
    if code == 0 or res["correct"] or res["failed"] == 0:
        failures.append("the dropping stack was not rejected")

    code, res = run(binary, "locked")
    print(f"locked: exit {code}, correct {res['correct']}, "
          f"failed {res['failed']} of {res['attempted']}")
    if code != 0 or not res["correct"] or res["failed"] != 0:
        failures.append("the mutex-backed stack did not pass")

    for f in failures:
        print("FAIL: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
