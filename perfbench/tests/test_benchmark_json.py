"""BENCHMARK.json must list exactly the workloads and metrics the harness
reports, with the same units and directions.

Run through `python3 perfbench/run.py --selftest`, which builds the
harness first; the test asks it for its catalogue with --list.
"""

import json
import os
import re
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
HARNESS = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench_harness")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        out = subprocess.run([HARNESS, "--list"], capture_output=True,
                             text=True, check=True).stdout
        cls.catalogue = json.loads(out)

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertEqual(self.bench["paths"], ["perfbench"])
        self.assertEqual(self.bench["command"][:2],
                         ["python3", "perfbench/run.py"])

    def test_workloads_match_harness(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(names, self.catalogue["workloads"])
        for w in self.bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def check_metrics(self, key, with_bound):
        listed = self.bench[key]
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in listed],
            [(m["name"], m["unit"], m["better"])
             for m in self.catalogue[key]])
        for m in listed:
            self.assertRegex(m["name"], NAME)
            self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
            expected = {"name", "unit", "better"} | (
                {"bound"} if with_bound else set())
            self.assertEqual(set(m), expected)
            if with_bound:
                self.assertGreater(m["bound"], 0)
                self.assertLessEqual(m["bound"], 0.25)

    def test_end_to_end_match_harness(self):
        self.check_metrics("end_to_end", with_bound=True)

    def test_per_layer_match_harness(self):
        self.check_metrics("per_layer", with_bound=False)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_names_are_unique(self):
        names = [w["name"] for w in self.bench["workloads"]]
        names += [m["name"] for m in self.bench["end_to_end"]]
        names += [m["name"] for m in self.bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
