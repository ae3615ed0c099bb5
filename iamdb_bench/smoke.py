#!/usr/bin/env python3
"""Schema smoke test of the benchmark program.

    python3 iamdb_bench/smoke.py [--binary PATH] [--trace-dir DIR]

Runs every workload of BENCHMARK.json at --scale=0.02, then one traced run
of `serve`, and checks that each run succeeds, that its last stdout line
parses as JSON, that it reports every end-to-end metric (and, traced,
every per-layer metric) BENCHMARK.json lists with the listed unit, and
that the trace file is valid Chrome trace JSON.  Without --binary the
program is built first, as run.py does.  Python standard library only.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (build() and BINARY)


def run_bench(binary, workload, trace_dir=None):
    cmd = [binary, f"--workload={workload}", "--seed=1", "--seconds=0.1",
           "--scale=0.02"]
    if trace_dir:
        cmd.append(f"--trace={trace_dir}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload, got, expected):
    for metric in expected:
        name = metric["name"]
        if name not in got:
            raise AssertionError(f"{workload}: metric {name} missing")
        value = got[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{workload}: {name} = {value!r}")
        if got[name]["unit"] != metric["unit"]:
            raise AssertionError(f"{workload}: {name} unit "
                                 f"{got[name]['unit']} != {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    binary = args.binary
    if binary is None:
        run.build()
        binary = run.BINARY
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)

    for workload in bench["workloads"]:
        result = run_bench(binary, workload["name"])
        if not result["correct"] or result["failed"] != 0:
            raise AssertionError(f"{workload['name']}: incorrect result")
        check_metrics(workload["name"], result["metrics"], bench["end_to_end"])
        print(f"ok {workload['name']} ({result['attempted']} ops)")

    with tempfile.TemporaryDirectory() as tmp:
        trace_dir = args.trace_dir or tmp
        os.makedirs(trace_dir, exist_ok=True)
        result = run_bench(binary, "serve", trace_dir)
        check_metrics("serve (traced)", result["layers"], bench["per_layer"])
        with open(os.path.join(trace_dir, "serve.trace.json")) as f:
            trace = json.load(f)
        events = trace["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        if not spans or not all({"name", "ts", "dur", "tid"} <= e.keys()
                                for e in spans):
            raise AssertionError("trace has no well-formed spans")
        print(f"ok serve traced ({len(spans)} spans)")


if __name__ == "__main__":
    main()
