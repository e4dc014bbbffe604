#!/usr/bin/env python3
"""Runs one workload once per seed and prints each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median, from
statistics.quantiles(values, n=4)) next to its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload msg --seeds 1-10 [--trace 0]

A spread under a third of the bound is steady; setup_s is reported but
not held to its bound (only its median is).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print("seed %d failed (exit %d)\n%s" % (seed, proc.returncode,
                                                    proc.stderr[-2000:]))
            return 1
        result = json.loads(last)
        print("seed %d: attempted %d failed %d correct %s" % (
            seed, result["attempted"], result["failed"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- over a third of the bound"
        print("%-36s median %-14.6g spread %-8.4f bound %s%s" % (
            name, med, spread, bound, flag))
        print("    " + " ".join("%.6g" % v for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
