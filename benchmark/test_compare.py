"""Unit tests for compare.py: python3 -B -m unittest -v test_compare (in benchmark/)."""

import unittest

from compare import compare, verdict


def m(value, q1=None, q3=None, lo=None, hi=None):
    q1 = value if q1 is None else q1
    q3 = value if q3 is None else q3
    return {"value": value, "q1": q1, "q3": q3,
            "min": q1 if lo is None else lo, "max": q3 if hi is None else hi}


class VerdictTest(unittest.TestCase):
    def test_within_bound_is_same(self):
        self.assertEqual(verdict(m(100.0), m(100.5), "lower", 0.01), "same")
        self.assertEqual(verdict(m(100.0), m(99.5), "higher", 0.01), "same")

    def test_past_bound_by_direction(self):
        self.assertEqual(verdict(m(100.0), m(102.0), "lower", 0.01), "worse")
        self.assertEqual(verdict(m(100.0), m(98.0), "lower", 0.01), "better")
        self.assertEqual(verdict(m(100.0), m(98.0), "higher", 0.01), "worse")
        self.assertEqual(verdict(m(100.0), m(102.0), "higher", 0.01), "better")

    def test_wide_spread_is_unresolved(self):
        noisy = m(100.0, 90.0, 110.0)
        self.assertEqual(verdict(noisy, m(115.0, 100.0, 125.0), "higher", 0.1),
                         "unresolved")
        self.assertEqual(verdict(m(100.0), noisy, "lower", 0.1), "unresolved")

    def test_dominance_resolves_a_wide_spread(self):
        base = m(100.0, 90.0, 110.0, 85.0, 115.0)
        faster = m(140.0, 130.0, 150.0, 120.0, 160.0)
        self.assertEqual(verdict(base, faster, "higher", 0.1), "better")
        self.assertEqual(verdict(faster, base, "higher", 0.1), "worse")
        self.assertEqual(verdict(base, faster, "lower", 0.1), "worse")

    def test_zero_bound_zero_base(self):
        self.assertEqual(verdict(m(0.0), m(0.0), "lower", 0.0), "same")
        self.assertEqual(verdict(m(0.0), m(0.001), "lower", 0.0), "worse")


class CompareTest(unittest.TestCase):
    SPECS = [{"name": "sim_exec_ms", "unit": "ms", "better": "lower", "bound": 0.01},
             {"name": "host_walks_per_s", "unit": "walks/s", "better": "higher",
              "bound": 0.1}]

    def test_rows_per_workload_and_metric(self):
        base = {"workloads": {"a": {"metrics": {"sim_exec_ms": m(5.0),
                                                "host_walks_per_s": m(100.0, 98, 102)}}}}
        new = {"workloads": {"a": {"metrics": {"sim_exec_ms": m(5.2),
                                               "host_walks_per_s": m(101.0, 99, 103)}}}}
        rows = compare(base, new, self.SPECS)
        self.assertEqual([(r[0], r[1], r[-1]) for r in rows],
                         [("a", "sim_exec_ms", "worse"), ("a", "host_walks_per_s", "same")])
        self.assertAlmostEqual(rows[0][5], 0.04)

    def test_same_seed_tightens_simulated_bounds(self):
        specs = [{"name": "sim_exec_ms", "unit": "ms", "better": "lower", "bound": 0.12}]

        def results(seed, value):
            return {"env": {"seed": seed, "quick": False},
                    "workloads": {"a": {"metrics": {"sim_exec_ms": m(value)}}}}

        same = compare(results(42, 5.0), results(42, 5.1), specs)
        self.assertEqual((same[0][6], same[0][-1]), (0.01, "worse"))
        other = compare(results(42, 5.0), results(7, 5.1), specs)
        self.assertEqual((other[0][6], other[0][-1]), (0.12, "same"))

    def test_missing_side_is_unresolved(self):
        base = {"workloads": {"a": {"metrics": {"sim_exec_ms": m(5.0)}}}}
        new = {"workloads": {"b": {"metrics": {"sim_exec_ms": m(5.0)}}}}
        verdicts = {(r[0], r[1]): r[-1] for r in compare(base, new, self.SPECS[:1])}
        self.assertEqual(verdicts, {("a", "sim_exec_ms"): "unresolved",
                                    ("b", "sim_exec_ms"): "unresolved"})


if __name__ == "__main__":
    unittest.main()
