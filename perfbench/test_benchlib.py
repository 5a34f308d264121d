"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import benchlib

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(name, start, end, parent, job=0):
    return [name, start, end, parent, job]


class SelfTimeTest(unittest.TestCase):
    # pass [0, 100)
    #   a  [10, 40)   job 1
    #     b [15, 25)
    #   c  [50, 90)   job 2
    #     a [60, 70)
    #     d [72, 80)
    SPANS = [
        span("pass", 0, 100, -1),
        span("a", 10, 40, 0, 1),
        span("b", 15, 25, 1, 1),
        span("c", 50, 90, 0, 2),
        span("a", 60, 70, 3, 2),
        span("d", 72, 80, 3, 2),
    ]

    def test_nested_and_sibling_spans(self):
        self.assertEqual(benchlib.self_times(self.SPANS),
                         [30, 20, 10, 22, 10, 8])

    def test_self_times_add_up_to_the_root(self):
        self.assertEqual(sum(benchlib.self_times(self.SPANS)), 100)

    def test_by_root_sums_names(self):
        roots = benchlib.self_time_by_root(self.SPANS)
        self.assertEqual(roots, [("pass", 100,
                                  {"pass": 30, "a": 30, "b": 10, "c": 22,
                                   "d": 8})])

    def test_roots_are_kept_apart(self):
        spans = [
            span("setup", 0, 10, -1),
            span("mir.compile", 1, 9, 0),
            span("pass", 20, 50, -1),
            span("core.run.base", 21, 41, 2),
            span("pass", 60, 80, -1),
            span("core.run.base", 61, 79, 4),
        ]
        roots = benchlib.self_time_by_root(spans)
        self.assertEqual([r[0] for r in roots], ["setup", "pass", "pass"])
        self.assertEqual(roots[0][2], {"setup": 2, "mir.compile": 8})
        self.assertEqual(roots[1][2], {"pass": 10, "core.run.base": 20})
        self.assertEqual(roots[2][2], {"pass": 2, "core.run.base": 18})

    def test_layer_of(self):
        self.assertEqual(benchlib.layer_of("core.run.elim"), "core")
        self.assertEqual(benchlib.layer_of("runner.sweep"), "runner")
        self.assertIsNone(benchlib.layer_of("bench.job"))
        self.assertIsNone(benchlib.layer_of("pass"))


class StatisticsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(benchlib.median(iter([5.0])), 5.0)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 4.0, 9.0, 2.0, 8.0, 3.0, 6.0, 5.0, 10.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q[0], q[2]))
        self.assertEqual(benchlib.quartiles(values), (2.75, 8.25))
        with self.assertRaises(ValueError):
            benchlib.quartiles([1.0])

    def test_iqr_share(self):
        values = [float(v) for v in range(1, 11)]
        self.assertAlmostEqual(benchlib.iqr_share(values), 5.5 / 5.5)
        self.assertEqual(benchlib.iqr_share([2.0, 2.0, 2.0]), 0.0)


class NamesTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("pass_s", "core.run_ms.base", "fuzz-lockstep",
                     "0x", "a" * 64):
            self.assertTrue(benchlib.valid_metric_name(name), name)

    def test_invalid_names(self):
        for name in ("", ".core", "_x", "-x", "a b", "a/b", "a" * 65,
                     "café", "x\n"):
            self.assertFalse(benchlib.valid_metric_name(name), repr(name))

    def test_catalogue_names_and_units(self):
        names = list(benchlib.END_TO_END) + list(benchlib.PER_LAYER)
        for name in names:
            self.assertTrue(benchlib.valid_metric_name(name), name)
        self.assertEqual(len(set(names)), len(names))
        for table in (benchlib.END_TO_END, benchlib.PER_LAYER,
                      benchlib.REPORTED_EXTRA):
            for name, spec in table.items():
                self.assertTrue(benchlib.valid_unit(spec[0]), name)

    def test_every_workload_has_a_sensitivity(self):
        self.assertEqual(set(benchlib.SENSITIVITY), set(benchlib.WORKLOADS))

    def test_bounds(self):
        bounds = {n: s[2] for n, s in benchlib.END_TO_END.items()}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_benchmark_json_agrees_with_the_catalogue(self):
        path = os.path.join(REPO_ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(benchlib.WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]}, benchlib.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            benchlib.PER_LAYER)


def raw_run(workload="fuzz-lockstep", passes=None, setup=None):
    if passes is None:
        passes = [fake_pass(warmup=True), fake_pass(wall=2.0),
                  fake_pass(wall=1.0), fake_pass(wall=3.0)]
    return {
        "workload": workload,
        "build": {"ndebug": True, "build_type": "Release",
                  "compiler": "GNU"},
        "calibration": {"slice_steps": 1000, "reference_slice_s": 1e-3,
                        "checksum": 7},
        "setup": setup or [{"seconds": 0.3, "counts": {"n": 1}}
                           for _ in passes],
        "passes": passes,
        "peak_rss_kb": 2048,
    }


def fake_pass(wall=1.0, traced=False, warmup=False, committed=1000000,
              failed=0, model=None, slice_s=1e-3, slices=10):
    return {"warmup": warmup, "traced": traced, "wall_s": wall,
            "cal_s": slice_s * slices, "cal_slices": slices,
            "seconds": {}, "counts": {"verify.committed": committed,
                                      "verify.jobs": 10},
            "model": model or {}, "attempted": 10, "failed": failed,
            "failures": ["boom"] * failed}


class RunChecksTest(unittest.TestCase):
    def test_clean_run(self):
        attempted, failed, messages = benchlib.check_run(raw_run())
        self.assertEqual(failed, 0, messages)
        # 40 pass operations, the build, 3 set-up comparisons, the
        # set-up count, 4 calibrations, 3 x 3 pass comparisons.
        self.assertEqual(attempted, 40 + 1 + 3 + 1 + 4 + 9)

    def test_failures_are_counted(self):
        raw = raw_run(passes=[fake_pass(warmup=True), fake_pass(failed=2)])
        _, failed, messages = benchlib.check_run(raw)
        self.assertEqual(failed, 2)
        self.assertEqual(messages, ["boom", "boom"])

    def test_count_drift_fails(self):
        raw = raw_run(passes=[fake_pass(warmup=True),
                              fake_pass(committed=999999)])
        _, failed, messages = benchlib.check_run(raw)
        self.assertEqual(failed, 1)
        self.assertIn("verify.committed", messages[0])

    def test_model_drift_fails(self):
        raw = raw_run(passes=[fake_pass(model={"x": 1.0}),
                              fake_pass(model={"x": 1.0 + 1e-12})])
        _, failed, _ = benchlib.check_run(raw)
        self.assertEqual(failed, 1)

    def test_setup_drift_fails(self):
        raw = raw_run(passes=[fake_pass(warmup=True), fake_pass()],
                      setup=[{"seconds": 0.1, "counts": {"n": 1}},
                             {"seconds": 0.1, "counts": {"n": 2}}])
        _, failed, _ = benchlib.check_run(raw)
        self.assertEqual(failed, 1)

    def test_a_pass_without_calibration_fails(self):
        raw = raw_run(passes=[fake_pass(warmup=True), fake_pass(slices=0)])
        _, failed, messages = benchlib.check_run(raw)
        self.assertEqual(failed, 1)
        self.assertIn("calibration", messages[0])

    def test_traced_pass_may_count_more(self):
        traced = fake_pass(traced=True)
        traced["counts"]["core.slots.iq_full"] = 5
        raw = raw_run(passes=[fake_pass(warmup=True), traced, fake_pass()])
        _, failed, messages = benchlib.check_run(raw)
        self.assertEqual(failed, 0, messages)

    def test_end_to_end_medians_skip_the_warm_up(self):
        raw = raw_run(setup=[{"seconds": s, "counts": {"n": 1}}
                             for s in (0.3, 0.1, 0.2, 0.2)])
        m = benchlib.end_to_end_metrics(raw)
        self.assertEqual(m["pass_s"], 2.0)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["mips"], 0.5)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["fail_frac"], 0.0)
        self.assertEqual(m["wall_s"], 2.0)
        self.assertEqual(set(m),
                         set(benchlib.END_TO_END) | {"wall_s", "fail_frac"})

    def test_times_are_scaled_to_the_reference_host(self):
        # The host ran the calibration slices at half the reference
        # speed during the timed passes: the simulator is taken to have
        # run 2 ** SENSITIVITY times slower.
        k = 2.0 ** benchlib.SENSITIVITY["fuzz-lockstep"]
        passes = [fake_pass(warmup=True, slice_s=1e-3),
                  fake_pass(wall=2.0 * k, slice_s=2e-3),
                  fake_pass(wall=4.0 * k, slice_s=2e-3),
                  fake_pass(wall=6.0 * k, slice_s=2e-3)]
        setup = [{"seconds": 0.5, "counts": {"n": 1}}] + [
            {"seconds": s * k, "counts": {"n": 1}} for s in (0.1, 0.2, 0.3)]
        m = benchlib.end_to_end_metrics(raw_run(passes=passes, setup=setup))
        self.assertAlmostEqual(m["pass_s"], 4.0)
        self.assertAlmostEqual(m["setup_s"], 0.25)
        self.assertAlmostEqual(m["mips"], 0.25)

    def test_per_layer_reports_every_metric(self):
        passes = [fake_pass(warmup=True), fake_pass(wall=1.0),
                  fake_pass(wall=1.1, traced=True)]
        spans = [span("pass", 0, 1100, -1),
                 span("verify.lockstep", 100, 700, 0),
                 span("calibrate", 700, 800, 0),
                 span("verify.lockstep.ff", 800, 1000, 0)]
        m = benchlib.per_layer_metrics(raw_run(passes=passes), spans)
        self.assertEqual(set(m), set(benchlib.PER_LAYER))
        self.assertAlmostEqual(m["verify.lockstep_ms"], 800e-6)
        self.assertAlmostEqual(m["verify.lockstep_ms.ff"], 200e-6)
        self.assertAlmostEqual(m["trace_coverage_pct"], 80.0)
        self.assertAlmostEqual(m["trace_overhead_pct"], 10.0)
        self.assertEqual(m["core.run_ms.base"], 0.0)
        self.assertEqual(m["bench.pass_raw_s"], 1.0)
        self.assertAlmostEqual(m["bench.cal_slice_ms"], 1.0)


if __name__ == "__main__":
    unittest.main()
