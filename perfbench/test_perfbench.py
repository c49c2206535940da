#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the checkout:

    python3 perfbench/test_perfbench.py

Short smoke runs of every workload (untraced and traced) must print
every metric BENCHMARK.json names, with its unit; the seeded-defect
modes must make the output check fail; and without the library
sources next to it the benchmark must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace=0, extra=(), cwd=ROOT, env=None):
    """One benchmark run; returns (exit code, stdout lines, result)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                         text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return out.returncode, lines, result


def printed(lines):
    """name -> (value, unit) from the "metric ..." lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def record(lines):
    rec = [l for l in lines if l.startswith("record ")]
    return json.loads(rec[-1][len("record "):]) if rec else {}


class Smoke(unittest.TestCase):
    def check_result(self, rc, lines, result, declared):
        self.assertEqual(rc, 0, "\n".join(lines))
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        shown = printed(lines)
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"],
                             m["unit"], m["name"])
            self.assertEqual(shown[m["name"]][1], m["unit"], m["name"])
        return shown

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines, result = run(w)
                shown = self.check_result(rc, lines, result,
                                          BENCH["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertEqual(shown["error_rate"], (0.0, "ratio"))
                rec = record(lines)
                for key in ("nproc", "compiler", "build_type", "git_rev",
                            "src_digest", "seed", "run_seconds",
                            "latency_samples"):
                    self.assertIn(key, rec)
                self.assertTrue("clients" in rec or "jobs" in rec)

    def test_traced_layer_metrics(self):
        # Layers each workload runs; everything else reports 0.
        expect = {
            "cold_compile": ["text.loop_parse_us", "sched.us",
                             "cache.acquire_us", "codegen.emit_us",
                             "service.stats_us"],
            "warm_tcp": ["net.request_parse_us", "net.transport_us",
                         "cache.find_us", "service.submit_us"],
            "fig_matrix": ["sched.us", "runner.cell_us",
                           "runner.parallel_efficiency"],
        }
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines, result = run(w, trace=1)
                self.check_result(rc, lines, result, BENCH["per_layer"])
                values = {k: v["value"]
                          for k, v in result["metrics"].items()}
                for name in expect[w]:
                    self.assertGreater(values[name], 0, name)
                if w == "warm_tcp":
                    self.assertEqual(values["sched.us"], 0)
                    self.assertEqual(values["service.hit_ratio"], 1)
                rec = record(lines)
                self.assertEqual(rec["trace_lint"], "clean")
                self.assertTrue(os.path.isfile(rec["trace_file"]))
                self.assertIn("traced.ops_per_s", printed(lines))


class Defects(unittest.TestCase):
    def test_seeded_defects_fail_the_check(self):
        for w, defect in (("cold_compile", "looprun"),
                          ("warm_tcp", "response"),
                          ("fig_matrix", "looprun")):
            with self.subTest(workload=w, defect=defect):
                rc, lines, result = run(w, extra=["--defect", defect])
                self.assertEqual(rc, 1, "\n".join(lines))
                self.assertFalse(result["correct"])
                self.assertTrue(any(l.startswith("check FAILED")
                                    for l in lines))


class MissingSources(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
        os.makedirs(build, exist_ok=True)
        bare = tempfile.mkdtemp(dir=build)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            cmd = [sys.executable, "perfbench/run.py", "--workload",
                   WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=bare, env=env,
                                 capture_output=True, text=True,
                                 timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
