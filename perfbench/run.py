#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload halo_put --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds perfbench/ (and the emulator
sources it compiles from src/) into .bench_build/ with CMake, runs the
perfbench binary, checks that its result line carries exactly the
metrics BENCHMARK.json declares for the requested mode, and prints that
line last. Traced runs (--trace 1) also write their spans to
.bench_build/spans/<workload>-<seed>.json.

Exits non-zero without printing a result when the build, the run or the
result check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the binary up to date (no-op when fresh)."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    """Return the parsed result line, or None when it breaks the contract."""
    try:
        res = json.loads(line)
    except ValueError:
        log("last output line is not JSON")
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        log("result keys differ from correct/attempted/failed/metrics")
        return None
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return None
    if res["attempted"] < 1:
        log("no operation attempted")
        return None
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].strip():
        sys.stderr.write(proc.stdout)
        log("benchmark exited with code %d" % proc.returncode)
        return 1
    if check_result(lines[-1], args.trace) is None:
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
