"""Tests of the benchmark's own logic (no build or corpus needed).

  python3 perfbench/test_perfbench.py
"""

import json
import math
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402
import run  # noqa: E402

SERIES_REPORT = """\
snapshot  health    lines read  lines skipped  confirmed off-net ASes
---------------------------------------------------------------------
2013-10   complete  38798       0              103
2014-01   complete  41018       0              113
2014-04   complete  43303       0              124

3 of 3 snapshots usable
"""


def batch_output(report, metrics, rc=0):
    return run.Output(run.Child(rc, 1.0, 10.0), report, metrics)


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        samples = list(range(1, 101))
        self.assertEqual(benchlib.percentile(samples, 0.5), (50, 100))
        self.assertEqual(benchlib.percentile(samples, 0.9), (90, 100))
        # 99th of 100: one sample beyond it, so it is not reported.
        self.assertIsNone(benchlib.percentile(samples, 0.99))
        self.assertIsNone(benchlib.percentile(samples[:19], 0.5))
        self.assertEqual(benchlib.percentile(samples[:20], 0.5), (10, 20))

    def test_p99_of_a_thousand(self):
        samples = list(range(1000, 0, -1))
        self.assertEqual(benchlib.percentile(samples, 0.99), (990, 1000))

    def test_failures_rank_above_every_latency(self):
        samples = [1.0] * 80 + [math.inf] * 20
        self.assertEqual(benchlib.percentile(samples, 0.5), (1.0, 100))
        self.assertEqual(benchlib.percentile(samples, 0.9)[0], math.inf)

    def test_empty(self):
        self.assertIsNone(benchlib.percentile([], 0.5))

    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q1, q2, q3))
        self.assertEqual(benchlib.quartiles([7.0]), (7.0, 7.0, 7.0))


class ReferenceSpeedTest(unittest.TestCase):
    def test_scales_by_the_median_calibration_of_the_run(self):
        # The calibration's median through the run is 1.0 s; at the
        # reference speed it takes 0.5 s, so a 3 s command takes 1.5 s.
        self.assertAlmostEqual(
            benchlib.at_reference_speed(3.0, [0.8, 1.0, 3.0], 0.5), 1.5)

    def test_a_host_twice_as_slow_reads_the_same(self):
        fast = benchlib.at_reference_speed(2.0, [0.5, 0.5], 0.5)
        slow = benchlib.at_reference_speed(4.0, [1.0, 1.0], 0.5)
        self.assertAlmostEqual(fast, slow)


class CorrectnessGateTest(unittest.TestCase):
    REF_METRICS = {"counters": {"pipeline/records": 5}}

    def metrics_text(self, records=5):
        return json.dumps({"counters": {"pipeline/records": records},
                           "timing": {"pipeline/run": {"calls": 1}}})

    def test_identical_series_report_passes(self):
        ref = {"report": SERIES_REPORT, "metrics": self.REF_METRICS}
        out = batch_output(SERIES_REPORT, self.metrics_text())
        self.assertEqual(run.check_batch("series31", ref, out), (3, 0))

    def test_altered_series_row_fails_that_snapshot(self):
        ref = {"report": SERIES_REPORT, "metrics": self.REF_METRICS}
        altered = SERIES_REPORT.replace("113", "112")
        out = batch_output(altered, self.metrics_text())
        self.assertEqual(run.check_batch("series31", ref, out), (3, 1))

    def test_altered_series_footer_fails_every_snapshot(self):
        altered = SERIES_REPORT.replace("3 of 3", "2 of 3")
        self.assertEqual(benchlib.series_failures(SERIES_REPORT, altered), 3)

    def test_missing_row_fails(self):
        lines = SERIES_REPORT.splitlines(keepends=True)
        altered = "".join(lines[:3] + lines[4:])
        self.assertEqual(benchlib.series_failures(SERIES_REPORT, altered), 1)

    def test_metrics_mismatch_or_exit_code_fails_every_snapshot(self):
        ref = {"report": SERIES_REPORT, "metrics": self.REF_METRICS}
        out = batch_output(SERIES_REPORT, self.metrics_text(records=6))
        self.assertEqual(run.check_batch("series31", ref, out), (3, 3))
        out = batch_output(SERIES_REPORT, None, rc=65)
        self.assertEqual(run.check_batch("series31", ref, out), (3, 3))

    def test_timing_is_ignored(self):
        ref = {"report": "r\n", "metrics": self.REF_METRICS}
        out = batch_output("r\n", json.dumps(
            {"counters": {"pipeline/records": 5},
             "timing": {"pipeline/run": {"calls": 9}}}))
        self.assertEqual(run.check_batch("analyze_big", ref, out), (1, 0))

    def test_altered_analyze_report_fails(self):
        report = "corpus: 892443 records, 635148 valid\n"
        ref = {"report": report, "metrics": self.REF_METRICS}
        out = batch_output(report.replace("635148", "635149"),
                           self.metrics_text())
        self.assertEqual(run.check_batch("analyze_big", ref, out), (1, 1))


class OpenLoopTest(unittest.TestCase):
    def test_summary(self):
        lines = ["0 0 40000 1000 0", "1 100 -1 2000 3", "0 200 50000 0 1",
                 "R 500 80000000 0 0",
                 "STATS OK version=2 requests=3 shed_busy=0 shed_deadline=1"]
        queries, reloads, stats, window_s = benchlib.open_loop_summary(lines)
        self.assertEqual(queries[0], [(40.0, 1.0, 0), (math.inf, 0.0, 1)])
        self.assertEqual(queries[1], [(math.inf, 2.0, 3)])
        self.assertEqual(reloads, [(0.08, 0)])
        self.assertEqual(window_s, 50200 / 1e9)
        counters = benchlib.stats_counters(stats)
        self.assertEqual(counters["shed_deadline"], 1)
        self.assertEqual(counters["version"], 2)


class LayerTest(unittest.TestCase):
    def span(self, name, start, end, parent=-1, run_id=0):
        return {"name": name, "start_ns": start, "end_ns": end,
                "parent": parent, "run": run_id}

    def test_children_and_unattributed_add_up(self):
        s = 1_000_000_000
        trace = {"spans": [
            self.span("series.run", 0, 10 * s),
            self.span("io.load", 0, 4 * s, 0, 1),
            self.span("io.relationships", 0, 1 * s, 1, 1),
            self.span("topology.build", 1 * s, 2 * s, 1, 1),
            self.span("pipeline.segment", 4 * s, 8 * s, 0, 1),
            self.span("checkpoint.save", 8 * s, 9 * s, 0, 1),
            self.span("obs.export", 10 * s, 11 * s)],
            "counts": {"io.lines": 7, "io.bytes": 70}}
        metrics = {"timing": {
            "pipeline/run": {"total_seconds": 3.0},
            "pipeline/validate_certs": {"total_seconds": 1.0},
            "pipeline/merge/pass1_shard": {"total_seconds": 0.5},
            "pipeline/merge/pass2_shard": {"total_seconds": 0.25}},
            "counters": {"pipeline/candidate_ips": 4,
                         "pipeline/confirmed_ips": 3}}
        out = benchlib.batch_layers(trace, metrics)
        self.assertAlmostEqual(out["io.unattributed_s"], 2.0)
        self.assertAlmostEqual(out["pipeline.merge_s"], 0.75)
        self.assertAlmostEqual(out["pipeline.unattributed_s"], 1.25)
        self.assertAlmostEqual(out["pipeline.outside_s"], 1.0)
        self.assertAlmostEqual(out["series.unattributed_s"], 1.0)
        self.assertAlmostEqual(out["top_level_s"], 11.0)
        self.assertNotIn("pipeline.delta_commit_s", out)
        self.assertEqual(out["pipeline.confirmed_per_candidate"], 0.75)
        self.assertEqual(out["io.lines"], 7)

    def test_cli_unattributed_comes_from_the_traced_process(self):
        traced = [{"top_level_s": 2.0, "traced_wall_s": 2.5,
                   "untraced_wall_s": 2.3},
                  {"top_level_s": 2.2, "traced_wall_s": 2.6,
                   "untraced_wall_s": 2.7},
                  {"top_level_s": 1.9, "traced_wall_s": 2.2,
                   "untraced_wall_s": 2.0}]
        layers = run.batch_layer_metrics(None, "analyze_big", None, traced)
        self.assertAlmostEqual(layers["cli.unattributed_s"], 0.4)
        self.assertAlmostEqual(layers["trace.overhead_s"], 0.2)


class VerdictTest(unittest.TestCase):
    PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.3]

    def test_unchanged(self):
        change = [v + 0.05 for v in self.PARENT]
        self.assertEqual(
            benchlib.verdict(self.PARENT, change, "lower", 0.1), "unchanged")

    def test_worse_beyond_bound(self):
        change = [v * 1.2 for v in self.PARENT]
        self.assertEqual(
            benchlib.verdict(self.PARENT, change, "lower", 0.1), "worse")

    def test_better_wins_nine_tenths_beyond_spread(self):
        change = [v * 0.85 for v in self.PARENT]
        self.assertEqual(
            benchlib.verdict(self.PARENT, change, "lower", 0.1), "better")
        self.assertEqual(
            benchlib.verdict(self.PARENT, change, "higher", 0.1), "worse")

    def test_small_gain_within_spread_is_unchanged(self):
        change = [v - 0.3 for v in self.PARENT]
        self.assertEqual(
            benchlib.verdict(self.PARENT, change, "lower", 0.1), "unchanged")

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        wide = [50.0, 150.0, 80.0, 120.0, 100.0]
        change = [v * 1.05 for v in wide]
        self.assertEqual(benchlib.verdict(wide, change, "lower", 0.1),
                         "unresolved")
        change = [10.0, 11.0, 12.0, 13.0, 14.0]
        self.assertEqual(benchlib.verdict(wide, change, "lower", 0.1),
                         "better")


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json next to the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        # analyze_big stays runnable by hand but is not gated.
        gated = [w["name"] for w in spec["workloads"]]
        self.assertEqual(gated, [w for w in run.WORKLOADS if w in gated])
        self.assertEqual(gated, ["series31", "offnetd_mix"])

    def test_months_are_the_study_snapshots(self):
        self.assertEqual(len(run.MONTHS), 31)
        self.assertEqual((run.MONTHS[0], run.MONTHS[-1]),
                         ("2013-10", "2021-04"))

    def test_query_set_is_seeded_with_even_verb_shares(self):
        ases = {13335, 15169, 2906}
        self.assertEqual(run.query_set(3, ases), run.query_set(3, ases))
        self.assertNotEqual(run.query_set(3, ases), run.query_set(4, ases))
        queries = run.query_set(3, ases)
        verbs = [q.split()[0] for q in queries]
        for verb in ("FOOTPRINT", "COVERAGE", "COHOST", "MONTHS"):
            self.assertEqual(verbs.count(verb), run.QUERY_SET // 4)
        cohost = {int(q.split()[2]) for q in queries if q.startswith("COHOST")}
        self.assertEqual(cohost, ases)

    def test_checkpoint_ases(self):
        lines = ["hg Google 3 2 1", "as 2 15169 36040", "as 0",
                 "cips 1 167772161", "as 1 15169"]
        self.assertEqual(benchlib.checkpoint_ases(lines), {15169, 36040})


if __name__ == "__main__":
    unittest.main()
