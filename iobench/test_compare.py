"""Self-test of the comparison rule on two recorded result sets.

    python3 -m unittest discover -s iobench -p 'test_*.py'

`baseline/set_a.json` and `baseline/set_b.json` are two sets of ten seeded
runs per workload, measured back to back on the same code.
"""

import copy
import json
import os
import unittest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def load(name):
    with open(os.path.join(HERE, "baseline", name)) as f:
        return json.load(f)


class CompareSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bounds = compare.load_bounds()
        cls.a = load("set_a.json")
        cls.b = load("set_b.json")

    def test_identical_code_is_not_flagged(self):
        self.assertEqual(compare.flagged(compare.compare(self.a, self.b, self.bounds)), set())
        self.assertEqual(compare.flagged(compare.compare(self.b, self.a, self.bounds)), set())

    def test_slowdown_is_flagged_on_that_workload_only(self):
        # Five points beyond run_s's bound: the smallest slowdown the
        # benchmark promises to catch, with margin.
        factor = 1.05 + self.bounds["run_s"][0]
        for workload in self.a:
            slow = copy.deepcopy(self.a)
            for run in slow[workload]:
                run["metrics"]["run_s"]["value"] *= factor
            got = compare.flagged(compare.compare(self.a, slow, self.bounds))
            self.assertEqual(got, {(workload, "run_s")}, workload)

    def test_speedup_is_not_flagged(self):
        fast = copy.deepcopy(self.a)
        for runs in fast.values():
            for run in runs:
                run["metrics"]["run_s"]["value"] /= 1.15
        self.assertEqual(compare.flagged(compare.compare(self.a, fast, self.bounds)), set())

    def test_sets_cover_every_workload_and_metric(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = {w["name"] for w in spec["workloads"]}
        for s in (self.a, self.b):
            self.assertEqual(set(s), names)
            for runs in s.values():
                self.assertEqual(len(runs), 10)
                for run in runs:
                    self.assertTrue(run["correct"])
                    self.assertEqual(set(run["metrics"]), set(self.bounds))


if __name__ == "__main__":
    unittest.main()
