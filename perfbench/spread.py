#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

From the root of a checkout:

    python3 perfbench/spread.py --runs 10 --seconds 15
    python3 perfbench/spread.py --runs 5 --first-seed 101 analyze-sketch-stream

For every workload and end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles (Python's
statistics.quantiles(values, n=4)) as a share of that median, next to the
bound BENCHMARK.json gives the metric. Each run gets its own seed. --json
also writes every run's values, so two sets can be compared later.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {res['failed']} failed checks")
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    for line in lines[:-1]:
        if line.startswith('{"env"'):
            vals["env"] = json.loads(line)["env"]
    return vals, time.time() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--json", help="write every run's metrics here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            vals, took = run_once(w, args.first_seed + i, seconds, 0)
            runs.append(vals)
            print(f"{w} seed {args.first_seed + i}: {took:.0f}s", file=sys.stderr)
        record[w] = runs
        print(f"\n{w} ({args.runs} runs, {seconds}s each)")
        print(f"  {'metric':<20} {'median':>14} {'iqr/median':>11} {'bound':>6}")
        for name in bounds:
            vs = [r[name] for r in runs]
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            share = (q[2] - q[0]) / med if med else float("nan")
            print(f"  {name:<20} {med:>14.4f} {share:>11.4f} {bounds[name]:>6}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
