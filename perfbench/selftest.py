#!/usr/bin/env python3
"""The benchmark's own tests, on the smoke size of every workload.

    python3 perfbench/selftest.py

Checks, for each workload at --size smoke (s27/s298-scale circuits, a few
seconds in total):
  * untraced and traced runs exit 0, report "correct": true, and emit
    exactly BENCHMARK.json's end_to_end (untraced) or per_layer (traced)
    metric names, each with its declared unit;
  * the traced run writes an flh.bench.envelope/1 file;
  * all four workloads traced in one process (--workload all) report the
    same ATPG figures for constrained-atpg as a run of it alone, and no
    workload's ATPG phase times include another's;
  * a deliberately corrupted copy of the workload's smoke reference makes
    the command exit non-zero with "correct": false.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BUILD = ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--size", "smoke",
           "--seed", "11", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


class Smoke(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float))

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result, err = run(w, 0)
                self.assertEqual(rc, 0, err[-2000:])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_runs_emit_every_per_layer_metric_and_an_envelope(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                envelope = BUILD / "work" / f"BENCH_perfbench_{w}.json"
                envelope.unlink(missing_ok=True)
                rc, result, err = run(w, 1)
                self.assertEqual(rc, 0, err[-2000:])
                self.assertTrue(result["correct"])
                self.check_metrics(result, BENCH["per_layer"])
                doc = json.loads(envelope.read_text())
                self.assertEqual(doc["schema"], "flh.bench.envelope/1")
                self.assertEqual(doc["results"]["workload"], w)
                self.assertTrue(doc["benchmarks"])

    def test_all_workloads_in_one_process_match_single_runs(self):
        rc, together, err = run("all", 1)
        self.assertEqual(rc, 0, err[-2000:])
        self.assertTrue(together["correct"])
        rc, alone, err = run("constrained-atpg", 1)
        self.assertEqual(rc, 0, err[-2000:])
        prefix = "constrained-atpg/"
        for name in ("atpg.fault_coverage_pct", "atpg.fault_efficiency_pct",
                     "atpg.aborted_faults", "atpg.test_count", "atpg.topoff_useful_ratio",
                     "podem.calls", "podem.backtracks_mean", "podem.useful_ratio"):
            self.assertEqual(together["metrics"][prefix + name], alone["metrics"][name], name)
        # The library's ATPG phase spans nest inside the generateTransitionTests
        # calls the benchmark times, so they cannot add up to more. Spans of
        # the workload that ran before (paper-flow) would break this.
        for result, p in ((together, prefix), (alone, "")):
            metrics = result["metrics"]
            phases = metrics[p + "atpg.random_ms"]["value"] + metrics[p + "atpg.topoff_ms"]["value"]
            calls = sum(v["value"] for k, v in metrics.items() if k.startswith(p + "atpg.ms."))
            self.assertGreater(phases, 0)
            self.assertLessEqual(phases, 1.05 * calls + 0.1, p or "single run")

    def test_corrupted_reference_fails_the_command(self):
        refs = BUILD / "selftest-reference"
        shutil.rmtree(refs, ignore_errors=True)
        shutil.copytree(HERE / "reference", refs)
        for w in WORKLOADS:
            with self.subTest(workload=w):
                (path,) = (refs / "smoke").glob(w + ".*")
                text = path.read_text()
                digit = re.search(r"\d", text)
                flipped = str((int(digit.group()) + 1) % 10)
                path.write_text(text[:digit.start()] + flipped + text[digit.end():])
                rc, result, err = run(w, 0, "--reference-dir", str(refs))
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("differs from reference", err)
        shutil.rmtree(refs, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
