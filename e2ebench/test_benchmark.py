"""Self-tests of ``BENCHMARK.json`` and of the result line.

    python3 e2ebench/test_benchmark.py     (from the repository root)
"""

import json
import os
import re
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

DECLARED = run.load_benchmark(ROOT)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def sample_result(metric_names):
    return {
        "attempted": 12,
        "failed": 0,
        "metrics": {name: {"value": 1.25, "unit": unit} for name, unit in metric_names},
        "info": {"kernel": "portable", "nproc": "2"},
        "checks": [{"name": "bits", "ok": True, "passed": 1, "total": 1, "detail": ""}],
    }


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.m = DECLARED

    def test_counts_stay_within_limits(self):
        self.assertTrue(2 <= len(self.m["workloads"]) <= 8)
        self.assertTrue(1 <= len(self.m["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.m["per_layer"]) <= 128)
        self.assertTrue(1 <= self.m["run_seconds"] <= 60)
        self.assertTrue(1 <= len(self.m["paths"]) <= 16)
        self.assertTrue(len(self.m["command"]) <= 32)

    def test_names_units_and_keys(self):
        groups = [self.m["workloads"], self.m["end_to_end"], self.m["per_layer"]]
        names = [entry["name"] for group in groups for entry in group]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for name in names:
            self.assertRegex(name, NAME)
        for w in self.m["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for metric in self.m["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in self.m["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in self.m["end_to_end"] + self.m["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))

    def test_setup_time_has_the_largest_bound(self):
        by_name = {m["name"]: m for m in self.m["end_to_end"]}
        setup = by_name["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.m["end_to_end"]))

    def test_command_and_paths_stay_inside_the_benchmark(self):
        for path in self.m["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        for word in self.m["command"]:
            self.assertLessEqual(len(word), 200)
            self.assertFalse(word.startswith("/") or ".." in word.split("/"))
        self.assertTrue(self.m["command"][1].startswith(self.m["paths"][0] + "/"))

    def test_file_has_exactly_the_contract_keys_and_size(self):
        keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        self.assertEqual(set(self.m), keys)
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)


class ResultLineTest(unittest.TestCase):
    def setUp(self):
        self.m = DECLARED

    def test_emitted_end_to_end_line_parses_with_exact_keys(self):
        result = sample_result((m["name"], m["unit"]) for m in self.m["end_to_end"])
        metrics, absent = run.validate(result, self.m, trace=False)
        line = json.loads(run.summary_line(result, metrics))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {m["name"] for m in self.m["end_to_end"]})
        self.assertEqual((line["correct"], line["attempted"], line["failed"], absent), (True, 12, 0, []))

    def test_absent_layers_read_zero_in_the_traced_line(self):
        result = sample_result([("trace.coverage", "ratio")])
        metrics, absent = run.validate(result, self.m, trace=True)
        line = json.loads(run.summary_line(result, metrics))
        self.assertEqual(set(line["metrics"]), {m["name"] for m in self.m["per_layer"]})
        self.assertEqual(line["metrics"]["trace.coverage"]["value"], 1.25)
        self.assertEqual(line["metrics"]["persist.write_us"], {"value": 0.0, "unit": "us"})
        self.assertIn("persist.write_us", absent)

    def test_a_failed_check_makes_the_run_incorrect(self):
        result = sample_result((m["name"], m["unit"]) for m in self.m["end_to_end"])
        result["checks"][0]["ok"] = False
        metrics, _ = run.validate(result, self.m, trace=False)
        self.assertFalse(json.loads(run.summary_line(result, metrics))["correct"])

    def test_a_missing_end_to_end_metric_is_refused(self):
        result = sample_result([("setup_s", "s")])
        with self.assertRaises(SystemExit):
            run.validate(result, self.m, trace=False)


if __name__ == "__main__":
    unittest.main()
