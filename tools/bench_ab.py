#!/usr/bin/env python3
"""A/B comparison of two checkouts on one perfbench workload.

    python3 tools/bench_ab.py BASE CHANGE --workload table8 \\
        [--pairs 10] [--seed 1]

BASE and CHANGE are two checkouts of the repository (for example the
parent commit extracted with `git archive` and the working tree). Each is
first built and warmed up with one short untimed run of its own
perfbench/run.py, then the two run `perfbench/run.py --trace 0` in PAIRS
alternating pairs, each run as long as CHANGE's BENCHMARK.json
`run_seconds`: the odd pairs run BASE first, the even pairs CHANGE first,
so a drift in the host's load hits both sides alike.

For every end-to-end metric BENCHMARK.json declares, the report gives each
side's median and quartiles, the ratio of the medians (CHANGE / BASE), how
many pairs CHANGE won (ties count for neither side), and whether the
medians differ by more than BASE's interquartile spread. Two diagnostic
rows follow, neither gated nor part of BENCHMARK.json: each side's median
minor page faults and system CPU seconds per timed run, read as
getrusage(RUSAGE_CHILDREN) deltas around the run (run.py, its build check
and the benchmark process together). A change that makes the heap give
pages back between worlds shows there first. Exits non-zero if a run
fails or reports failed operations.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`; returns its metrics dict and its
    (minor faults, system CPU seconds)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = (after.ru_minflt - before.ru_minflt,
             after.ru_stime - before.ru_stime)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_ab: run in {checkout} exited with {proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").splitlines()[-1])
    if result.get("failed", 0) != 0:
        sys.exit(f"bench_ab: run in {checkout} reported failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}, usage


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    sides = {"base": args.base, "change": args.change}
    for checkout in sides.values():  # build + warm caches, untimed
        run(checkout, args.workload, args.seed, 1.0)

    samples = {"base": [], "change": []}
    usages = {"base": [], "change": []}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            metrics, usage = run(sides[side], args.workload, args.seed,
                                 seconds)
            samples[side].append(metrics)
            usages[side].append(usage)
        line = "  ".join(
            f"{side}={samples[side][-1].get('throughput', 0):.4g}"
            for side in ("base", "change"))
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): "
              f"throughput {line}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {seconds:g} s, "
          f"seed {args.seed}")
    print(f"{'metric':<16} {'base q1/med/q3':>30} {'change q1/med/q3':>30}"
          f" {'ratio':>7} {'wins':>6}  resolved")
    for name, direction in better.items():
        base = [s[name] for s in samples["base"]]
        change = [s[name] for s in samples["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        ratio = c_med / b_med if b_med else float("nan")
        resolved = abs(c_med - b_med) > (b_q3 - b_q1)
        print(f"{name:<16} {f'{b_q1:.4g}/{b_med:.4g}/{b_q3:.4g}':>30} "
              f"{f'{c_q1:.4g}/{c_med:.4g}/{c_q3:.4g}':>30} "
              f"{ratio:>7.3f} {f'{wins}/{args.pairs}':>6}  "
              f"{'yes' if resolved else 'no'}")

    print("diagnostic, not gated (median per run, base -> change):")
    for column, label in ((0, "ru_minflt"), (1, "sys_cpu_s")):
        base = statistics.median(u[column] for u in usages["base"])
        change = statistics.median(u[column] for u in usages["change"])
        ratio = change / base if base else float("nan")
        print(f"{label:<16} {base:>30.6g} {change:>30.6g} {ratio:>7.3f}")


if __name__ == "__main__":
    main()
