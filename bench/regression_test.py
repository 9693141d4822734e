#!/usr/bin/env python3
"""Unit tests for bench/regression.py gating logic.

Runs the checker as a subprocess over synthetic reports, pinning the
missing-section rule (a gated section present in the baseline but absent
from the candidate must FAIL, not silently skip), the array_scaling
gates (hard determinism, hw_threads-conditional scaling floor), and the
informational speedup line at the host's own thread count.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REGRESSION = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "regression.py")


def minimal_report(**extra):
    report = {
        "schema": "fw-bench-sim/2",
        "seed": 42,
        "e2e": {"dataset": "TT", "scale": "test", "walks": 1000,
                "sim_exec_ns": 12345},
    }
    report.update(extra)
    return report


def array_section(determinism_ok=True, scaling_4dev=2.5, hw_threads=8):
    return {
        "dataset": "TT",
        "walks": 50000,
        "seed": 42,
        "hw_threads": hw_threads,
        "determinism_ok": determinism_ok,
        "scaling_4dev": scaling_4dev,
        "points": [],
    }


def run_checker(base, cur, *args):
    with tempfile.TemporaryDirectory() as d:
        bpath = os.path.join(d, "base.json")
        cpath = os.path.join(d, "cur.json")
        with open(bpath, "w") as f:
            json.dump(base, f)
        with open(cpath, "w") as f:
            json.dump(cur, f)
        proc = subprocess.run(
            [sys.executable, REGRESSION, "--baseline", bpath,
             "--current", cpath, *args],
            capture_output=True, text=True)
    return proc


class MissingSectionTest(unittest.TestCase):
    def test_section_in_baseline_missing_from_candidate_fails(self):
        base = minimal_report(array_scaling=array_section())
        cur = minimal_report()
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("[MISSING]", proc.stdout)
        self.assertIn("array_scaling.missing", proc.stderr)

    def test_every_gated_section_obeys_the_missing_rule(self):
        for section, payload in [
            ("service_mix", {"dataset": "TT", "scale": "test", "seed": 42,
                             "mixes": []}),
            ("parallel", {"determinism_ok": True, "speedup_8w": 4.0,
                          "hw_threads": 8}),
            ("engine_parallel", {"determinism_ok": True, "speedup_8w": 3.0,
                                 "hw_threads": 8}),
            ("array_scaling", array_section()),
        ]:
            with self.subTest(section=section):
                base = minimal_report(**{section: payload})
                proc = run_checker(base, minimal_report())
                self.assertEqual(proc.returncode, 1,
                                 proc.stdout + proc.stderr)
                self.assertIn(f"{section}.missing", proc.stderr)

    def test_section_absent_from_both_skips(self):
        proc = run_checker(minimal_report(), minimal_report())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("checks skipped", proc.stdout)


def mix_section(models=None):
    return {
        "dataset": "TT",
        "scale": "test",
        "seed": 42,
        "mixes": [],
        "models": models if models is not None else [],
    }


def model_entry(name, legacy=False, deterministic=True, makespan_ns=1000):
    return {"name": name, "legacy": legacy, "deterministic": deterministic,
            "makespan_ns": makespan_ns, "steps": 500}


class CheckModelsTest(unittest.TestCase):
    def test_passing_model_block(self):
        sect = mix_section([model_entry("deepwalk", legacy=True),
                            model_entry("metapath")])
        proc = run_checker(minimal_report(service_mix=sect),
                           minimal_report(service_mix=sect))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("service_mix.models[deepwalk].makespan_ns", proc.stdout)
        self.assertIn("service_mix.models[metapath].deterministic", proc.stdout)

    def test_new_model_nondeterminism_fails_even_without_baseline_entry(self):
        base = minimal_report(service_mix=mix_section([]))
        cur = minimal_report(service_mix=mix_section(
            [model_entry("metapath", deterministic=False)]))
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("service_mix.models.metapath.deterministic", proc.stderr)

    def test_legacy_makespan_drift_fails(self):
        base = minimal_report(service_mix=mix_section(
            [model_entry("ppr", legacy=True, makespan_ns=1000)]))
        cur = minimal_report(service_mix=mix_section(
            [model_entry("ppr", legacy=True, makespan_ns=1001)]))
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("service_mix.models.ppr.makespan_ns", proc.stderr)

    def test_new_model_makespan_drift_is_not_gated(self):
        base = minimal_report(service_mix=mix_section(
            [model_entry("autoreg", makespan_ns=1000)]))
        cur = minimal_report(service_mix=mix_section(
            [model_entry("autoreg", makespan_ns=2000)]))
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_model_vanishing_from_candidate_fails(self):
        base = minimal_report(service_mix=mix_section(
            [model_entry("metapath")]))
        cur = minimal_report(service_mix=mix_section([]))
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("service_mix.models.metapath", proc.stderr)


def parallel_section(hw_threads):
    return {"hw_threads": hw_threads, "determinism_ok": True,
            "serial_events_per_sec": 100.0,
            "workers": {"1": 90.0, "2": 150.0, "4": 250.0, "8": 80.0},
            "speedup_8w": 0.8}


def engine_parallel_section(hw_threads):
    return {"hw_threads": hw_threads, "determinism_ok": True,
            "workers_walks_per_sec": {"1": 100.0, "2": 120.0, "4": 150.0,
                                      "8": 60.0},
            "speedup_8w": 0.6}


class HostSpeedupTest(unittest.TestCase):
    def run_both(self, hw_threads, *args):
        report = minimal_report(parallel=parallel_section(hw_threads),
                                engine_parallel=engine_parallel_section(hw_threads))
        proc = run_checker(report, report, *args)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return proc.stdout

    def test_speedup_at_host_thread_count_is_informational(self):
        out = self.run_both(4)
        self.assertIn("parallel.speedup_4w: 2.5 (min(hw_threads 4, 8) workers) "
                      "[informational]", out)
        self.assertIn("engine_parallel.speedup_4w: 1.5 (min(hw_threads 4, 8) "
                      "workers) [informational]", out)

    def test_large_hosts_cap_at_8_workers(self):
        # Floors off: at 16 hardware threads the 8-worker floors are gated.
        out = self.run_both(16, "--parallel-floor", "0", "--engine-floor", "0")
        self.assertIn("engine_parallel.speedup_8w: 0.6 (min(hw_threads 16, 8) "
                      "workers) [informational]", out)

    def test_unmeasured_thread_count_uses_the_next_lower_point(self):
        out = self.run_both(6)
        self.assertIn("parallel.speedup_4w: 2.5 (min(hw_threads 6, 8) workers)", out)


class ArrayScalingTest(unittest.TestCase):
    def test_passing_section(self):
        base = minimal_report(array_scaling=array_section())
        cur = minimal_report(array_scaling=array_section())
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("array_scaling.determinism_ok: True", proc.stdout)

    def test_nondeterminism_always_fails(self):
        base = minimal_report(array_scaling=array_section())
        cur = minimal_report(
            array_scaling=array_section(determinism_ok=False, hw_threads=2))
        proc = run_checker(base, cur)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("array_scaling.determinism_ok", proc.stderr)

    def test_scaling_floor_gated_only_with_8_hw_threads(self):
        base = minimal_report(array_scaling=array_section())
        low = minimal_report(
            array_scaling=array_section(scaling_4dev=1.2, hw_threads=4))
        proc = run_checker(base, low)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("[informational]", proc.stdout)

        low_hw8 = minimal_report(
            array_scaling=array_section(scaling_4dev=1.2, hw_threads=8))
        proc = run_checker(base, low_hw8)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("array_scaling.scaling_4dev", proc.stderr)

    def test_array_floor_flag_overrides(self):
        base = minimal_report(array_scaling=array_section())
        cur = minimal_report(
            array_scaling=array_section(scaling_4dev=1.2, hw_threads=8))
        proc = run_checker(base, cur, "--array-floor", "1.0")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
