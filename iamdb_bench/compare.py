#!/usr/bin/env python3
"""Compares two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 iamdb_bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds run results as written by `run.py --save DIR`: one
file per run whose last line is iamdb_bench's JSON result (it names its
workload and seed).  Traced runs are skipped, and runs that failed a check
are counted but their metrics are left out.  For every workload and
end-to-end metric this prints each side's median and quartiles, the
change/base ratio and a verdict:

  unresolved  either side's interquartile range, as a share of its median,
              is wider than the metric's bound, and not every change run
              beats every base run;
  regressed   the change's median is worse by more than the bound;
  improved    it is better by more than the bound;
  unchanged   otherwise.

Runs with the same seed on both sides are paired; the pair-win rate (ties
count for neither side) is printed with each row.  A gain claim needs at
least 9 wins in 10 pairs, a median difference larger than the base's own
interquartile range, and no more failed runs or operations on the change
side than on the base; rows that meet all three are marked "claim ok".
Exits 1 if any row regressed or the change failed more than the base.
Python standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(directory):
    """Returns ({workload: {seed: metrics}}, {workload: [bad runs, failed ops]}).

    Traced results (they carry "layers") are skipped: their end-to-end
    metrics come from half the rounds and include the trace buffers.  A run
    that failed a check (correct false or failed > 0) is counted in the
    second map and left out of the first.
    """
    runs, failures = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            continue
        result = json.loads(lines[-1])
        if "workload" not in result or "metrics" not in result:
            sys.exit(f"compare.py: {path} is not an iamdb_bench result "
                     "(write runs with run.py --save)")
        if "layers" in result:
            continue
        workload, seed = result["workload"], result["seed"]
        bad = failures.setdefault(workload, [0, 0])
        if not result["correct"] or result["failed"] > 0:
            bad[0] += 1
            bad[1] += result["failed"]
            continue
        seeds = runs.setdefault(workload, {})
        if seed in seeds:
            sys.exit(f"compare.py: {directory} holds two untraced runs of "
                     f"{workload} with seed {seed}")
        seeds[seed] = {
            name: m["value"] for name, m in result["metrics"].items()}
    return runs, failures


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base, change, bound, higher_is_better):
    sign = 1 if higher_is_better else -1
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    # Positive gain = the change is better.
    gain = sign * (change_median - base_median) / abs(base_median)
    if max(relative_spread(base), relative_spread(change)) > bound:
        all_better = all(sign * (c - b) > 0 for c in change for b in base)
        if not all_better:
            return "unresolved", gain
    if gain < -bound:
        return "regressed", gain
    if gain > bound:
        return "improved", gain
    return "unchanged", gain


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    base_runs, base_failures = load_runs(args.base)
    change_runs, change_failures = load_runs(args.change)

    header = (f"{'workload':<11} {'metric':<14} {'base median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'ratio':>7}  "
              f"{'verdict':<10} pairs")
    print(header)
    print("-" * len(header))
    regressed = False
    for workload in [w["name"] for w in bench["workloads"]]:
        base_bad = base_failures.get(workload, [0, 0])
        change_bad = change_failures.get(workload, [0, 0])
        # A gain does not count when the change fails more than the base.
        more_failures = (change_bad[0] > base_bad[0] or
                         change_bad[1] > base_bad[1])
        if base_bad[0] or change_bad[0]:
            print(f"{workload:<11} failed runs (ops): base {base_bad[0]} "
                  f"({base_bad[1]}), change {change_bad[0]} ({change_bad[1]})"
                  f"{'  regressed' if more_failures else ''}")
        regressed = regressed or more_failures
        if workload not in base_runs or workload not in change_runs:
            print(f"{workload:<11} (no correct runs on one side)")
            continue
        base_seeds = base_runs[workload]
        change_seeds = change_runs[workload]
        paired = sorted(set(base_seeds) & set(change_seeds))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            higher = metric["better"] == "higher"
            base = [m[name] for m in base_seeds.values() if name in m]
            change = [m[name] for m in change_seeds.values() if name in m]
            if not base or not change:
                print(f"{workload:<11} {name:<14} (missing)")
                continue
            result, gain = verdict(base, change, metric["bound"], higher)
            regressed = regressed or result == "regressed"
            wins = sum(
                1 for s in paired
                if (change_seeds[s][name] - base_seeds[s][name]) *
                (1 if higher else -1) > 0)
            pairs = f"{wins}/{len(paired)}" if paired else "-"
            base_q1, base_med, base_q3 = quartiles(base)
            change_q1, change_med, change_q3 = quartiles(change)
            if (paired and not more_failures and
                    wins >= 0.9 * len(paired) and
                    abs(change_med - base_med) > base_q3 - base_q1 and
                    gain > 0):
                pairs += " claim ok"
            ratio = change_med / base_med if base_med else float("nan")
            print(f"{workload:<11} {name:<14} "
                  f"{base_med:>12.5g} [{base_q1:>8.5g}, {base_q3:>8.5g}] "
                  f"{change_med:>12.5g} [{change_q1:>8.5g}, "
                  f"{change_q3:>8.5g}] {ratio:>7.4f}  {result:<10} {pairs}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
