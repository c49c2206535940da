#!/usr/bin/env python3
"""Relative regression gate for serve_throughput, paired across processes.

Usage:

    python3 bench/serve_gate.py BASE_BIN HEAD_BIN

Runs the two serve_throughput binaries alternately, three times each
(base, head, base, head, ...), each run in its own temporary directory
so the BENCH_serve.json files stay apart, then compares the median
warm and cold rps of the head runs against the median of the base
runs. Fails (exit 1) when a head median is more than
$DMS_SERVE_MAX_DROP percent (default 15) below the base median, when
head lacks a phase base reports, or when any run exits non-zero. A
phase the base runs do not report is skipped with a warning. The
environment (DMS_SUITE_COUNT, ...) is passed through to both binaries.

One serve_throughput process repeats each phase and reports the
median, but runs of one binary still spread by about 20% between
processes; alternating the two builds and taking medians across
processes is what lets a 15% bound hold.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

PHASES = ("warm", "cold")
PAIRS = 3


def run_once(binary):
    """Run one serve_throughput process; return its BENCH_serve.json."""
    with tempfile.TemporaryDirectory() as cwd:
        subprocess.run([os.path.abspath(binary)], cwd=cwd, check=True)
        with open(os.path.join(cwd, "BENCH_serve.json")) as f:
            return json.load(f)


def medians(runs):
    """Median rps per phase, for the phases every run reports."""
    return {p: statistics.median(r[p]["rps"] for r in runs)
            for p in PHASES
            if all("rps" in r.get(p, {}) for r in runs)}


def gate(base_runs, head_runs, max_drop):
    """Print one verdict line per phase; True when every phase holds."""
    base, head = medians(base_runs), medians(head_runs)
    ok = True
    for phase in PHASES:
        if phase not in base:
            print(f"warn: baseline has no {phase} rps; skipping its gate")
            continue
        if phase not in head:
            print(f"FAIL: head has no {phase} rps")
            ok = False
            continue
        floor = base[phase] * (100 - max_drop) / 100
        held = head[phase] >= floor
        ok &= held
        print(f"{'gate' if held else 'FAIL'}: {phase} median "
              f"{head[phase]:.0f} req/s vs base median "
              f"{base[phase]:.0f} (floor {floor:.0f})")
    return ok


def max_drop():
    text = os.environ.get("DMS_SERVE_MAX_DROP", "15")
    if not (text.isdigit() and int(text) < 100):
        sys.exit(f"DMS_SERVE_MAX_DROP={text!r} is not a percentage "
                 "below 100")
    return int(text)


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: python3 bench/serve_gate.py BASE_BIN HEAD_BIN")
    base_bin, head_bin = sys.argv[1:]
    drop = max_drop()
    base_runs, head_runs = [], []
    try:
        for _ in range(PAIRS):
            base_runs.append(run_once(base_bin))
            head_runs.append(run_once(head_bin))
    except subprocess.CalledProcessError as e:
        print(f"FAIL: {e.cmd[0]} exited {e.returncode}")
        return 1
    return 0 if gate(base_runs, head_runs, drop) else 1


if __name__ == "__main__":
    sys.exit(main())
