#!/usr/bin/env python3
"""Runs each workload repeatedly and prints, per metric, the median,
the quartiles and the spread (interquartile range over the median).

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --seconds 20
    python3 perfbench/steadiness.py --workloads served_wire --runs 5 --seed 100

Each run uses its own seed (seed, seed + 1, ...). The bounds in
BENCHMARK.json come from this output: a metric's bound is at least three
times the spread measured here, and at most 0.25. `--json FILE` also
writes every run's raw values.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run failed: %s (exit %d)" %
                         (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1]), wall


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true",
                    help="summarize the per-layer metrics of traced runs")
    ap.add_argument("--json", help="write every run's values here")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workloads.split(","):
        per_metric, units, shares, walls = {}, {}, set(), []
        for i in range(args.runs):
            result, wall = run_once(workload, args.seed + i, args.seconds,
                                    args.trace)
            walls.append(wall)
            if not result["correct"]:
                raise SystemExit("%s seed %d: incorrect result" %
                                 (workload, args.seed + i))
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        raw[workload] = per_metric
        print("%s: %d runs, seeds %d..%d, failed share %s, wall %.1f-%.1f s" %
              (workload, args.runs, args.seed, args.seed + args.runs - 1,
               sorted(shares), min(walls), max(walls)))
        print("  %-36s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, values in per_metric.items():
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print("  %-36s %14.6g %14.6g %14.6g %8.4f %6s %s%s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else "%.2f" % bound, units[name],
                   flag))
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
