#!/usr/bin/env python3
"""Runs the benchmark once per seed on one workload and prints, for each
metric, its median and its spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median.

Run from the repository root:

    python3 perfbench/spread.py --workload cold-upload --seeds 101-110 \
        --out perfbench/results/set-a

Each run's full output is kept as OUT/WORKLOAD-SEED.txt and the spread
table as OUT/WORKLOAD-spread.txt.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="a seed or an inclusive range, e.g. 101-110")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    values = {}
    lines = []
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        p = subprocess.run(cmd, capture_output=True, text=True)
        with open(os.path.join(args.out, f"{args.workload}-{seed}.txt"), "w") as f:
            f.write("$ " + " ".join(cmd) + "\n" + p.stdout + p.stderr)
        if p.returncode != 0:
            print(f"seed {seed}: exit {p.returncode}", file=sys.stderr)
            return 1
        res = json.loads(p.stdout.strip().splitlines()[-1])
        line = f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} " + \
            " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
        print(line, flush=True)
        lines.append(line)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    table = [f"{'metric':32s} {'median':>12s} {'iqr/median':>11s} {'min':>12s} {'max':>12s}"]
    for k, vs in sorted(values.items()):
        m = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        table.append(f"{k:32s} {m:12.6g} {(q[2] - q[0]) / m if m else 0:11.4f} {min(vs):12.6g} {max(vs):12.6g}")
    print("\n".join(table))
    with open(os.path.join(args.out, f"{args.workload}-spread.txt"), "w") as f:
        f.write("\n".join(lines + [""] + table) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
