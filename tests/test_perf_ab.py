#!/usr/bin/env python3
"""Unit tests of the perfbench A/B gate's verdict (tools/perf_ab.py).

    python3 tests/test_perf_ab.py

Drives perf_ab.verdict on synthetic run.py results against the repository's
BENCHMARK.json, so the bounds under test are the ones CI gates with.
"""

import copy
import importlib.util
import contextlib
import io
import json
import os
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("perf_ab",
                                               os.path.join(ROOT, "tools", "perf_ab.py"))
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BASE_VALUES = {"run_s": 0.5, "setup_s": 0.003, "refs_per_s": 4.0e7,
               "peak_rss_mb": 12.0, "sim_mpcycles": 900.0}
PAIRS = 3


def result(scale=None, failed=0, attempted=30, correct=True):
    """One run.py result; scale maps a metric name to a factor on its base value."""
    scale = scale or {}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v * scale.get(name, 1.0), "unit": units[name]}
                        for name, v in BASE_VALUES.items()}}


def side(**kwargs):
    """The same result for every pair of every workload."""
    return {wl: [result(**kwargs) for _ in range(PAIRS)] for wl in WORKLOADS}


class VerdictTest(unittest.TestCase):
    def check(self, change, parent=None):
        return perf_ab.verdict(SPEC, parent or side(), change)

    def test_unchanged_passes(self):
        rows, failures = self.check(side())
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), len(WORKLOADS) * len(SPEC["end_to_end"]))
        self.assertTrue(all(r["status"] == "ok" for r in rows))

    def test_fifty_percent_slower_run_fails_naming_workload_and_metric(self):
        change = side()
        change["paper-sor"] = [result({"run_s": 1.5}) for _ in range(PAIRS)]
        _, failures = self.check(change)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("paper-sor", failures[0])
        self.assertIn("run_s", failures[0])

    def test_twenty_percent_slower_run_is_inside_the_bound(self):
        _, failures = self.check(side(scale={"run_s": 1.2}))
        self.assertEqual(failures, [])

    def test_fifteen_percent_more_rss_fails_its_tighter_bound(self):
        _, failures = self.check(side(scale={"peak_rss_mb": 1.15}))
        self.assertEqual(len(failures), len(WORKLOADS), failures)
        self.assertTrue(all("peak_rss_mb" in f for f in failures))

    def test_twice_as_fast_passes_and_wins_every_pair(self):
        rows, failures = self.check(side(scale={"run_s": 0.5, "refs_per_s": 2.0}))
        self.assertEqual(failures, [])
        run_rows = [r for r in rows if r["metric"] == "run_s"]
        self.assertTrue(all(r["wins"] == PAIRS for r in run_rows))

    def test_throughput_drop_beyond_bound_fails(self):
        _, failures = self.check(side(scale={"refs_per_s": 0.7}))
        self.assertEqual(len(failures), len(WORKLOADS), failures)
        self.assertTrue(all("refs_per_s" in f for f in failures))

    def test_higher_failed_share_on_change_fails(self):
        change = side()
        change["blockserve-zipf"][1] = result(failed=1, correct=False)
        _, failures = self.check(change)
        self.assertTrue(failures)
        self.assertTrue(all("blockserve-zipf" in f for f in failures), failures)

    def test_equal_failed_share_passes(self):
        _, failures = self.check(side(failed=1), parent=side(failed=1))
        self.assertEqual(failures, [])

    def test_metric_missing_on_change_side_fails(self):
        change = side()
        for r in change["coherence-radix32"]:
            r["metrics"] = copy.deepcopy(r["metrics"])
            del r["metrics"]["setup_s"]
        rows, failures = self.check(change)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("coherence-radix32", failures[0])
        self.assertIn("setup_s", failures[0])
        self.assertIn("missing on change",
                      [r for r in rows if r["metric"] == "setup_s"
                       and r["workload"] == "coherence-radix32"][0]["status"])

    def test_wide_parent_spread_is_unresolved_not_failed(self):
        parent = side()
        for wl in WORKLOADS:
            parent[wl] = [result({"run_s": f}) for f in (0.6, 1.0, 1.4)]
        rows, failures = self.check(side(), parent=parent)
        self.assertEqual(failures, [])
        self.assertTrue(all(r["status"] == "unresolved"
                            for r in rows if r["metric"] == "run_s"))
        # Every change run beats every parent run: resolved despite the spread.
        rows, _ = self.check(side(scale={"run_s": 0.5}), parent=parent)
        self.assertTrue(all(r["status"] == "ok" for r in rows if r["metric"] == "run_s"))

    def test_table_has_one_row_per_workload_and_metric(self):
        rows, _ = self.check(side())
        lines = perf_ab.table(rows).splitlines()
        self.assertEqual(len(lines), 2 + len(rows))


class RunOnceTest(unittest.TestCase):
    """A tree whose perfbench/run.py fails its build, as a base tree does when
    HEAD's perfbench/ uses a simulator API the base lacks."""

    def failing_tree(self, tmp):
        os.makedirs(os.path.join(tmp, "perfbench"))
        with open(os.path.join(tmp, "perfbench", "run.py"), "w") as f:
            f.write("import sys\n"
                    "sys.stderr.write('run: build failed: cmake --build x\\n')\n"
                    "sys.exit(2)\n")
        return tmp

    def error_of(self, tree, is_base):
        with self.assertRaises(RuntimeError) as cm, \
                contextlib.redirect_stderr(io.StringIO()):
            perf_ab.run_once(tree, WORKLOADS[0], 1, is_base)
        return str(cm.exception)

    def test_base_build_failure_names_the_perfbench_mismatch(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = self.failing_tree(tmp)
            self.assertIn("BASE_TREE cannot be built with HEAD_TREE's perfbench/",
                          self.error_of(tree, is_base=True))
            self.assertIn("printed no result", self.error_of(tree, is_base=False))


if __name__ == "__main__":
    unittest.main()
