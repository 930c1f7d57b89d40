"""Tests of the comparison verdicts and the host/build refusal.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
from compare import verdict  # noqa: E402


class VerdictTest(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_clear_gain_is_improved(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "higher", 0.1), "improved")

    def test_lower_is_better(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), "improved")
        self.assertEqual(verdict(self.parent, change, "higher", 0.1), "worse")

    def test_small_shift_within_bound_is_unchanged(self):
        change = [v * 0.97 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "higher", 0.1), "unchanged")

    def test_noisy_parent_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [v * 0.95 for v in noisy]
        self.assertEqual(verdict(noisy, change, "higher", 0.1), "unresolved")

    def test_every_change_run_better_overrides_noise(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [200 + i for i in range(10)]
        self.assertEqual(verdict(noisy, change, "higher", 0.1), "improved")

    def test_wins_needed(self):
        # Medians differ but the change wins only half the pairs.
        change = [110, 90, 110, 90, 110, 90, 110, 90, 130, 130]
        self.assertNotEqual(verdict(self.parent, change, "higher", 0.5), "improved")

    def test_per_layer_without_bound(self):
        change = [v * 1.5 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower"), "worse")
        self.assertEqual(verdict(self.parent, list(self.parent), "lower"), "unchanged")


class ComparableTest(unittest.TestCase):
    def record(self, host_id="h1", build_type="Release"):
        return {"host": {"host_id": host_id, "nproc": 4, "cpu_model": "x"},
                "build": {"type": build_type, "compiler": "GNU-12"}}

    def test_same_host_and_build(self):
        self.assertIsNone(benchlib.comparable(self.record(), self.record()))

    def test_refuses_other_host(self):
        why = benchlib.comparable(self.record(), self.record(host_id="h2"))
        self.assertIn("different hosts", why)

    def test_refuses_other_build_type(self):
        why = benchlib.comparable(self.record(), self.record(build_type="RelWithDebInfo"))
        self.assertIn("different builds", why)


if __name__ == "__main__":
    unittest.main()
