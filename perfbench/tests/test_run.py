"""Tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests

The replay test builds the benchmark (as run.py does) on first use.
"""

import copy
import json
import os
import re
import subprocess
import sys
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MedianAndTail(unittest.TestCase):
    def test_few_samples_have_no_tail(self):
        self.assertEqual(run.median_and_tail([3.0, 1.0, 2.0]),
                         {"n": 3, "median": 2.0, "tail_pct": None,
                          "tail": None})

    def test_tail_leaves_exactly_ten_samples_beyond(self):
        xs = list(range(1, 101))
        s = run.median_and_tail(reversed(xs))
        self.assertEqual((s["n"], s["median"]), (100, 50.5))
        self.assertEqual((s["tail_pct"], s["tail"]), (90.0, 90))
        self.assertEqual(sum(1 for x in xs if x > s["tail"]), 10)

    def test_eleven_samples_give_the_lowest_tail(self):
        s = run.median_and_tail(range(11))
        self.assertEqual((s["median"], s["tail"]), (5, 0))
        self.assertAlmostEqual(s["tail_pct"], 100.0 / 11)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            run.median_and_tail([])


class OutputSchema(unittest.TestCase):
    def setUp(self):
        self.bench = load_benchmark()

    def test_benchmark_json_follows_the_contract(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in b["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_result_has_exactly_the_contract_keys(self):
        specs = self.bench["end_to_end"]
        values = {m["name"]: 1.5 for m in specs}
        result = run.result_line(values, specs, 10, 0)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        for spec in specs:
            self.assertEqual(result["metrics"][spec["name"]],
                             {"value": 1.5, "unit": spec["unit"]})
        json.loads(json.dumps(result))

    def test_missing_extra_or_non_finite_metrics_are_errors(self):
        specs = self.bench["per_layer"]
        values = {m["name"]: 1.0 for m in specs}
        for broken in ({k: v for k, v in list(values.items())[1:]},
                       dict(values, unlisted=1.0),
                       dict(values, **{specs[0]["name"]: float("nan")})):
            with self.assertRaises(run.BenchError):
                run.result_line(broken, specs, 1, 0)

    def test_reference_mismatch_is_an_error(self):
        with open(os.path.join(PERFBENCH, "reference.json")) as f:
            reference = json.load(f)
        cells = [dict(c, scenario="s") for c in
                 reference["fig1_mean_round"]["cells"]]
        out = {"hash": reference["grid_hash"]["fig1-paper"], "cells": cells}
        run.check_outputs("fig1-paper", run.DEFAULT_SEED, out, reference)
        tampered = copy.deepcopy(out)
        tampered["cells"][-1]["mean_round"] += 1e-12
        with self.assertRaises(run.BenchError):
            run.check_outputs("fig1-paper", run.DEFAULT_SEED, tampered,
                              reference)
        with self.assertRaises(run.BenchError):
            run.check_outputs("fig1-small", run.DEFAULT_SEED,
                              dict(out, hash="0x0"), reference)
        run.check_outputs("fig1-small", run.DEFAULT_SEED + 1,
                          dict(out, hash="0x0"), reference)


class ReplayEqualsSimulate(unittest.TestCase):
    def test_every_workload_scenario_at_small_n(self):
        binary = os.path.join(run.build(), "perfbench")
        proc = subprocess.run([binary, "--mode=selftest"],
                              capture_output=True, text=True, timeout=600,
                              check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(result["selftest"], "ok")
        self.assertGreater(result["trials_checked"], 0)


if __name__ == "__main__":
    unittest.main()
