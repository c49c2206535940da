#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report spread.

Usage, from the root of the checkout:

    python3 perfbench/steady.py --runs 10 [--workload cold_compile ...]
        [--first-seed 1 | --fixed-seed 1] [--seconds N] [--out FILE]

Run i uses seed first-seed + i, or with --fixed-seed the same seed
every time: a fixed-seed set shows the host's share of the spread
alone, a set over seeds adds the inputs' share. For each workload
and end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json. A
spread above a third of the bound is flagged "wide", one above the
bound "OVER". Every run must exit 0 and report correct=true. Exits 1
when a spread is over its bound. With --out the raw values and the
summary are written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if out.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, out.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    seeds = ap.add_mutually_exclusive_group()
    seeds.add_argument("--first-seed", type=int, default=1)
    seeds.add_argument("--fixed-seed", type=int)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    report = {}
    over = 0
    for w in workloads:
        values = {}
        if args.fixed_seed is not None:
            seeds = [args.fixed_seed] * args.runs
        else:
            seeds = [args.first_seed + i for i in range(args.runs)]
        for seed in seeds:
            for name, v in run_once(w, seed, args.seconds).items():
                values.setdefault(name, []).append(v)
        report[w] = {"seeds": seeds}
        print("%s (%d runs, seeds %s)" % (
            w, args.runs, ",".join(map(str, sorted(set(seeds))))))
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med if med else float("inf")
            limit = m["bound"] / 3
            flag = ""
            if spread > m["bound"]:
                flag = "  OVER"
                over += 1
            elif spread > limit:
                flag = "  wide"
            print("  %-15s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f (bound/3 %.4f)%s"
                  % (m["name"], med, q1, q3, spread, limit, flag),
                  flush=True)
            report[w][m["name"]] = {"values": xs, "median": med,
                                    "q1": q1, "q3": q3,
                                    "spread": spread}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
