#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 iamdb_bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--save <dir>]

The program is configured and built on first use into .bench_build/ at the
repository root (CMake, Release).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
holds the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1, which also writes
.bench_build/traces/<workload>.trace.json).  --save additionally stores the
program's full result line as <dir>/<workload>.<seed>.<trace>.json for
compare.py.  Exits non-zero, without a result line, if the build or the
run fails; exits 1 with a result line if any operation or check failed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "iamdb_bench")
BINARY = os.path.join(BUILD_DIR, "iamdb_bench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
# A run stops starting rounds after 100 s; this is the hard stop.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def check_call(cmd):
    # Build output goes to stderr: stdout carries only the result line, and
    # the compiler's temporary files stay inside the build directory.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=dict(os.environ, TMPDIR=tmp))
    if result.returncode != 0:
        fail(f"command failed ({result.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found: expected src/ beside iamdb_bench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            check_call(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator)
        jobs = str(min(4, os.cpu_count() or 1))
        check_call(["cmake", "--build", BUILD_DIR, "--target", "iamdb_bench",
                    "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="directory for the full result line")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd.append(f"--trace={TRACE_DIR}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"iamdb_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        full = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"iamdb_bench exited {proc.returncode} without a result line")
    metrics = full.get("layers" if args.trace else "metrics")
    if metrics is None:
        fail("iamdb_bench result has no metrics")

    if args.save:
        os.makedirs(args.save, exist_ok=True)
        name = f"{args.workload}.{args.seed}.{args.trace}.json"
        with open(os.path.join(args.save, name), "w") as f:
            f.write(lines[-1] + "\n")
    print(json.dumps({
        "correct": full["correct"],
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": metrics,
    }))
    sys.exit(0 if proc.returncode == 0 and full["correct"] else 1)


if __name__ == "__main__":
    main()
