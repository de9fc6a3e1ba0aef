#!/usr/bin/env python3
"""Self-tests for tools/check_bench_regression.py.

Covers the exact work-counter gate (``--exact``) next to the wall-clock
gate it rides on, and the ceiling gate (``--max``), on small JsonReport
files written to a temporary directory. Run directly or via
`python3 -m unittest discover tools`.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def report(wall_ms, **metrics):
    return {"bench": "ext_scale", "params": {}, "metrics": metrics,
            "wall_ms": wall_ms, "trials": 8}


BASELINE = report(1000.0, n200_channels_realized=650,
                  n200_receivers_culled=4350, m500_channels_realized=10152,
                  cell_delivered_total=22, cell_culled_total=1569,
                  sessions_per_sec=168.1)


class GateTestCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, doc):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_script(self, *args):
        proc = subprocess.run([sys.executable, SCRIPT, *args],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def run_gate(self, current, *extra, baseline=BASELINE):
        return self.run_script(
            "--baseline", self.write("baseline.json", baseline),
            "--current", self.write("current.json", current), *extra)


class ExactGateTest(GateTestCase):
    def test_identical_counters_pass(self):
        # Wall time and the ungated throughput may move; counters may not.
        current = dict(BASELINE, wall_ms=1500.0)
        current["metrics"] = dict(BASELINE["metrics"], sessions_per_sec=90.0)
        code, out = self.run_gate(current, "--exact", "n*_channels_realized",
                                  "--exact", "cell_*_total")
        self.assertEqual(code, 0, out)
        self.assertIn("3 work counter(s) compared exactly, 0 failure(s)", out)

    def test_changed_counter_fails_inside_the_timing_bound(self):
        current = dict(BASELINE)
        current["metrics"] = dict(BASELINE["metrics"],
                                  n200_channels_realized=1940)
        code, out = self.run_gate(current, "--exact", "n*_channels_realized")
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL   n200_channels_realized: 650 -> 1940", out)
        # Without the exact gate the same pair passes the timing gate.
        code, out = self.run_gate(current)
        self.assertEqual(code, 0, out)

    def test_absent_counter_fails(self):
        current = dict(BASELINE)
        current["metrics"] = {k: v for k, v in BASELINE["metrics"].items()
                              if k != "cell_culled_total"}
        code, out = self.run_gate(current, "--exact", "cell_*_total")
        self.assertEqual(code, 1, out)
        self.assertIn("cell_culled_total: 1569 -> <absent>", out)

    def test_pattern_matching_nothing_fails(self):
        code, out = self.run_gate(BASELINE, "--exact", "m*_frames_delivered")
        self.assertEqual(code, 1, out)
        self.assertIn("matches no baseline metric", out)

    def test_pattern_matches_whole_name(self):
        # 'n*_channels_realized' must not pick up a *_reference sibling.
        baseline = report(1000.0, n200_channels_realized=650,
                          n200_channels_realized_reference=5000)
        current = report(1000.0, n200_channels_realized=650,
                         n200_channels_realized_reference=4999)
        code, out = self.run_gate(current, "--exact", "n*_channels_realized",
                                  baseline=baseline)
        self.assertEqual(code, 0, out)

    def test_timing_failure_still_fails_with_exact_counters(self):
        current = dict(BASELINE, wall_ms=4000.0)
        code, out = self.run_gate(current, "--exact", "cell_*_total")
        self.assertEqual(code, 1, out)
        self.assertIn("regression gate FAILED: wall_ms", out)

    def test_exact_rejected_in_determinism_mode(self):
        code, out = self.run_gate(BASELINE, "--determinism",
                                  "--exact", "cell_*_total")
        self.assertEqual(code, 2, out)


class CeilingGateTest(GateTestCase):
    def run_ceiling(self, metrics, *extra):
        return self.run_script(
            "--current", self.write("current.json", report(900.0, **metrics)),
            *extra)

    def test_value_at_or_below_limit_passes(self):
        code, out = self.run_ceiling({"obs_peak_rss_mb": 19.0},
                                     "--max", "obs_peak_rss_mb=64")
        self.assertEqual(code, 0, out)
        self.assertIn("ok     obs_peak_rss_mb: 19 <= 64", out)
        code, out = self.run_ceiling({"obs_peak_rss_mb": 64.0},
                                     "--max", "obs_peak_rss_mb=64")
        self.assertEqual(code, 0, out)

    def test_value_above_limit_fails(self):
        code, out = self.run_ceiling({"obs_peak_rss_mb": 267.0},
                                     "--max", "obs_peak_rss_mb=64")
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL   obs_peak_rss_mb: 267 > 64", out)

    def test_absent_or_null_key_fails(self):
        code, out = self.run_ceiling({"sessions_per_sec": 168.1},
                                     "--max", "obs_peak_rss_mb=64")
        self.assertEqual(code, 1, out)
        self.assertIn("obs_peak_rss_mb: absent", out)
        code, out = self.run_ceiling({"obs_peak_rss_mb": None},
                                     "--max", "obs_peak_rss_mb=64")
        self.assertEqual(code, 1, out)

    def test_every_ceiling_is_checked(self):
        code, out = self.run_ceiling(
            {"obs_peak_rss_mb": 19.0, "wall_frac": 0.9},
            "--max", "obs_peak_rss_mb=64", "--max", "wall_frac=0.5")
        self.assertEqual(code, 1, out)
        self.assertIn("2 ceiling(s) checked, 1 failure(s)", out)

    def test_rides_on_require_key_and_default_modes(self):
        code, out = self.run_ceiling({"obs_peak_rss_mb": 267.0},
                                     "--require-key", "obs_peak_rss_mb",
                                     "--max", "obs_peak_rss_mb=64")
        self.assertEqual(code, 1, out)
        self.assertIn("0 missing", out)
        current = dict(BASELINE)
        current["metrics"] = dict(BASELINE["metrics"], obs_peak_rss_mb=267.0)
        code, out = self.run_gate(current, "--max", "obs_peak_rss_mb=64")
        self.assertEqual(code, 1, out)
        self.assertIn("0 failure(s), 0 warning(s)", out)

    def test_malformed_limit_or_determinism_mode_is_a_usage_error(self):
        for spec in ("obs_peak_rss_mb", "obs_peak_rss_mb=lots", "=64"):
            code, out = self.run_ceiling({"obs_peak_rss_mb": 19.0},
                                         "--max", spec)
            self.assertEqual(code, 2, out)
        code, out = self.run_gate(BASELINE, "--determinism",
                                  "--max", "obs_peak_rss_mb=64")
        self.assertEqual(code, 2, out)


if __name__ == "__main__":
    unittest.main()
