"""Tests of the benchmark: arithmetic, names, failure accounting and a smoke run.

    python3 -m unittest discover -s e2ebench -v     (from the repository root)
"""

import copy
import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class OrderStatistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q3))
        # Exclusive method on 1..10: positions 2.75 and 8.25.
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_quartile_distance_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 10.0)
        self.assertEqual(stats.spread([2.0] * 6), 0.0)
        with self.assertRaises(ValueError):
            stats.spread([0.0, 0.0, 0.0])

    def test_worsening_follows_direction(self):
        self.assertAlmostEqual(stats.worsening(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worsening(10.0, 9.0, "lower"), -0.1)
        self.assertAlmostEqual(stats.worsening(10.0, 9.0, "higher"), 0.1)
        with self.assertRaises(ValueError):
            stats.worsening(10.0, 9.0, "sideways")

    def test_within_bound_edges(self):
        self.assertTrue(stats.within_bound(100.0, 110.0, "lower", 0.1))
        self.assertFalse(stats.within_bound(100.0, 110.5, "lower", 0.1))
        self.assertTrue(stats.within_bound(100.0, 50.0, "lower", 0.1))
        self.assertFalse(stats.within_bound(100.0, 80.0, "higher", 0.1))


class MetricNames(unittest.TestCase):
    def test_name_rules(self):
        for ok in ["run_s", "sweep.wall_s", "0x", "a-b.c_d", "a" * 64]:
            self.assertTrue(stats.valid_name(ok), ok)
        for bad in ["", "_run", ".x", "a b", "a/b", "a" * 65, None]:
            self.assertFalse(stats.valid_name(bad), bad)

    def test_unit_rules(self):
        for ok in ["s", "ms", "1/s", "%", "MiB", "count"]:
            self.assertTrue(stats.valid_unit(ok), ok)
        for bad in ["", "per second", "a" * 17]:
            self.assertFalse(stats.valid_unit(bad), bad)

    def test_benchmark_json_is_valid(self):
        self.assertEqual(stats.check_spec(load_spec()), [])

    def test_spec_checks_catch_mistakes(self):
        spec = load_spec()
        dup = copy.deepcopy(spec)
        dup["per_layer"].append(dict(dup["per_layer"][0]))
        self.assertTrue(any("twice" in p for p in stats.check_spec(dup)))
        loose = copy.deepcopy(spec)
        loose["end_to_end"][0]["bound"] = 0.3
        self.assertTrue(stats.check_spec(loose))
        no_setup = copy.deepcopy(spec)
        no_setup["end_to_end"] = [m for m in spec["end_to_end"] if m["name"] != "setup_s"]
        self.assertTrue(any("setup_s" in p for p in stats.check_spec(no_setup)))


class FailureAccounting(unittest.TestCase):
    """Every way an operation can go wrong is counted, and none can hang."""

    def test_run_op_reports_timeout_exit_and_garbage(self):
        result, error = run.run_op("sh", ["-c", "sleep 30"], deadline=0.5)
        self.assertIsNone(result)
        self.assertIn("timed out", error)
        result, error = run.run_op("sh", ["-c", "echo boom >&2; exit 101"], deadline=10)
        self.assertEqual(error, "exit code 101: boom")
        result, error = run.run_op("sh", ["-c", "echo not json"], deadline=10)
        self.assertEqual(error, "no JSON result line")
        result, error = run.run_op("sh", ["-c", "echo '{\"a\": 1}'"], deadline=10)
        self.assertEqual((result, error), ({"a": 1}, None))

    def test_check_catches_each_wrong_output(self):
        n = 4
        good = {"passed": True, "id_sum": 10, "expected_id_sum": 10, "count": 4,
                "digest": "d", "run_s": 1.0}
        self.assertIsNone(run.check(good, n, "d"))
        self.assertIsNone(run.check(good, n, None))
        cases = {
            "verification FAIL": dict(good, passed=False),
            "id checksum": dict(good, id_sum=9),
            "final count": dict(good, count=3),
            "state digest": dict(good, digest="e"),
            "layers exceed": dict(good, layers={}, unattributed_s=-0.05),
        }
        for why, bad in cases.items():
            with self.subTest(why=why):
                self.assertIn(why, run.check(bad, n, "d"))
        self.assertIsNone(run.check(dict(good, layers={}, unattributed_s=-0.01), n, "d"))


class HostScaling(unittest.TestCase):
    def test_times_scale_by_calibration_and_the_rest_do_not(self):
        r = {"run_s": 2.0, "setup_s": 0.2, "cpu_s": 3.0, "peak_rss_mb": 100.0,
             "max_load_ratio": 1.5, "cal_s": 2 * run.CAL_REF_S, "cal_cpu_s": run.CAL_REF_S}
        self.assertAlmostEqual(run.scaled(r, "run_s"), 1.0)
        self.assertAlmostEqual(run.scaled(r, "setup_s"), 0.1)
        self.assertAlmostEqual(run.scaled(r, "cpu_s"), 3.0)
        self.assertEqual(run.scaled(r, "peak_rss_mb"), 100.0)
        self.assertEqual(run.scaled(r, "max_load_ratio"), 1.5)

    def test_every_scaled_metric_is_an_end_to_end_time(self):
        by_name = {m["name"]: m for m in load_spec()["end_to_end"]}
        for name in run.HOST_SCALED:
            self.assertEqual(by_name[name]["unit"], "s", name)


class TraceOrder(unittest.TestCase):
    def test_each_kind_leads_equally_often(self):
        turns = [run.traced_turn(i) for i in range(8)]
        self.assertEqual(turns, [False, True, True, False] * 2)
        # Half the operations are traced, and in the positions of each
        # kind the first and later operations are shared evenly.
        self.assertEqual(sum(i for i, t in enumerate(turns) if t),
                         sum(i for i, t in enumerate(turns) if not t))


class SmokeRun(unittest.TestCase):
    """All three workloads at small n through the one command."""

    SEED = 7

    def run_bench(self, workload, trace):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(self.SEED), "--seconds", "1", "--trace", str(trace),
               "--particles", "20000", "--grid", "64", "--steps", "20"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        digest = next(l.split()[1] for l in lines if l.startswith("digest "))
        return result, digest, lines

    def test_all_workloads_correct_with_one_digest(self):
        spec = load_spec()
        digests = set()
        for w in (w["name"] for w in spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    result, digest, lines = self.run_bench(w, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 3)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[kind]})
                    for m in spec[kind]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    if trace == 1:
                        self.assertTrue(any(l.startswith("ledger of") for l in lines))
                    digests.add(digest)
        self.assertEqual(len(digests), 1, digests)

    def test_unknown_workload_is_refused(self):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
               "--seed", "1", "--seconds", "1"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
