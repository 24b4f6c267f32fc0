#!/usr/bin/env python3
"""Contract tests for trajectory.py, and a shape check of the
committed BENCH_trajectory.json.

Run directly (python3 tools/test_trajectory.py) or via ctest
(registered as test_trajectory). Uses only the standard library and
subprocesses the real script: exit 0 appends one entry, exit 1
appends nothing.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRIPT = os.path.join(HERE, "trajectory.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    METRICS = [m["name"] for m in json.load(fh)["end_to_end"]]


def run_record(seed, scale, failed=0):
    """One run.py run record whose metrics are `scale` times 1..5."""
    return {"seed": seed, "trace": 0, "headline": True, "status": "ok",
            "attempted": 10, "failed": failed,
            "metrics": {m: {"value": scale * (i + 1), "unit": "x"}
                        for i, m in enumerate(METRICS)}}


def results(runs, commit="abc123", workload="fork_join_fine"):
    """A run.py results.json holding `runs` of one workload."""
    return {"cpu_key": "Test CPU x4", "commit": commit, "seed": 1,
            "seconds": 12, "repeat": len(runs), "trace": 0,
            "workloads": {workload: {
                "ops_attempted": 10 * len(runs),
                "ops_failed": sum(r["failed"] for r in runs),
                "metrics": {}, "runs": runs}}}


class TrajectoryContract(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory(prefix="trajectory_test_")
        self.addCleanup(self.dir.cleanup)
        self.file = self.path("trajectory.json")

    def path(self, name):
        return os.path.join(self.dir.name, name)

    def write(self, name, payload):
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return self.path(name)

    def invoke(self, *paths, label="change"):
        return subprocess.run(
            [sys.executable, SCRIPT, "--pr", "7", "--label", label,
             "--file", self.file, *paths],
            capture_output=True, text=True, check=False)

    def entries(self):
        with open(self.file, encoding="utf-8") as fh:
            return json.load(fh)

    def test_appends_medians_over_every_file(self):
        a = self.write("a.json", results([run_record(1, 1.0)]))
        b = self.write("b.json", results([run_record(2, 3.0),
                                          run_record(3, 2.0)]))
        proc = self.invoke(a, b)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        [e] = self.entries()
        self.assertEqual((e["pr"], e["label"], e["commit"], e["cpu_key"],
                          e["seconds"]),
                         (7, "change", "abc123", "Test CPU x4", 12))
        w = e["workloads"]["fork_join_fine"]
        self.assertEqual(w["repeat"], 3)
        self.assertEqual(w["ops_failed"], 0)
        for i, m in enumerate(METRICS):
            self.assertEqual(w[m], 2.0 * (i + 1), m)

    def test_appends_after_existing_entries(self):
        first = self.write("first.json", results([run_record(1, 1.0)]))
        self.assertEqual(self.invoke(first, label="parent").returncode, 0)
        second = self.write("second.json",
                            results([run_record(1, 2.0)], commit="def456"))
        self.assertEqual(self.invoke(second).returncode, 0)
        entries = self.entries()
        self.assertEqual([e["commit"] for e in entries],
                         ["abc123", "def456"])
        self.assertEqual(entries[0]["label"], "parent")

    def assert_rejected(self, *paths):
        with open(self.file, "w", encoding="utf-8") as fh:
            fh.write("[]\n")
        proc = self.invoke(*paths)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("nothing appended", proc.stderr)
        self.assertEqual(self.entries(), [])

    def test_failed_ops_append_nothing(self):
        self.assert_rejected(self.write(
            "failed.json", results([run_record(1, 1.0, failed=1)])))

    def test_missing_metric_appends_nothing(self):
        run = run_record(1, 1.0)
        del run["metrics"][METRICS[-1]]
        self.assert_rejected(self.write("missing.json", results([run])))

    def test_crashed_run_appends_nothing(self):
        run = run_record(1, 1.0, failed=10)
        run["metrics"] = {}
        self.assert_rejected(self.write("crashed.json", results([run])))

    def test_two_commits_append_nothing(self):
        a = self.write("a.json", results([run_record(1, 1.0)]))
        b = self.write("b.json",
                       results([run_record(2, 1.0)], commit="other"))
        self.assert_rejected(a, b)

    def test_unreadable_results_append_nothing(self):
        with open(self.path("bad.json"), "w", encoding="utf-8") as fh:
            fh.write("{not json")
        self.assert_rejected(self.path("bad.json"))


class CommittedTrajectory(unittest.TestCase):
    def test_every_entry_has_the_documented_shape(self):
        with open(os.path.join(ROOT, "BENCH_trajectory.json"),
                  encoding="utf-8") as fh:
            entries = json.load(fh)
        self.assertIsInstance(entries, list)
        self.assertTrue(entries)
        for e in entries:
            self.assertIn(e["label"], ("parent", "change"))
            for key in ("pr", "commit", "cpu_key", "seconds"):
                self.assertIn(key, e)
            self.assertTrue(e["workloads"])
            for name, w in e["workloads"].items():
                self.assertEqual(w["ops_failed"], 0, name)
                self.assertGreaterEqual(w["repeat"], 1, name)
                for m in METRICS:
                    self.assertIsInstance(w[m], (int, float), (name, m))


if __name__ == "__main__":
    unittest.main()
