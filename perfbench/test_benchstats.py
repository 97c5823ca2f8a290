"""Tests of the benchmark's own arithmetic (benchstats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import benchstats as bs


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bs.percentile(values, 0.50), 50)
        self.assertEqual(bs.percentile(values, 0.99), 99)
        self.assertEqual(bs.percentile(values, 1.0), 100)
        self.assertEqual(bs.percentile([7.0], 0.99), 7.0)

    def test_unsorted_input_and_failures_count_as_infinite(self):
        values = [5.0, 1.0, 3.0] + [math.inf] * 2
        self.assertEqual(bs.percentile(values, 0.5), 5.0)
        self.assertEqual(bs.percentile(values, 0.99), math.inf)

    def test_sample_count_rule(self):
        # p99 needs ten samples beyond it: 1000 samples, not 999.
        self.assertTrue(bs.supports_percentile(1000, 0.99))
        self.assertFalse(bs.supports_percentile(999, 0.99))
        self.assertTrue(bs.supports_percentile(20, 0.5))
        self.assertFalse(bs.supports_percentile(19, 0.5))

    def test_latency_percentiles_need_ten_samples_beyond_p99(self):
        values = [1.0] * 985 + [2.0] * 5 + [math.inf] * 10
        self.assertEqual(bs.latency_percentiles(values), (1.0, 2.0, 1000))
        with self.assertRaises(ValueError):
            bs.latency_percentiles(values[:999])


class QuietWindowTest(unittest.TestCase):
    @staticmethod
    def samples(steals):
        """Flat generator samples, one every SAMPLE_S, with `steals[i]`
        steal ticks between sample i and i + 1."""
        out = [0.0, 0.0, 0.0, 0.0]
        for steal in steals:
            t, stolen, total, _ = out[-4:]
            out += [t + bs.SAMPLE_S, stolen + steal, total + 50, 0.0]
        return out

    def test_split_by_due_and_completion_time(self):
        # Two windows; a request due in the first completes in the
        # second; one due after the last sample is left out; a failed
        # one counts as infinitely slow and completes nowhere.
        dues = [0.0, 0.1, 0.2, 0.3, 0.6]
        latencies = [10.0, 200.0, math.inf, 10.0, 1.0]
        windows = bs.split_windows(dues, latencies, self.samples([0, 3]))
        self.assertEqual([w.latencies for w in windows],
                         [[10.0, 200.0, math.inf], [10.0]])
        self.assertEqual([w.done for w in windows], [1, 2])
        self.assertEqual([w.steal for w in windows], [0, 3])

    def test_quiet_windows_leave_out_stolen_ones(self):
        windows = bs.split_windows([], [], self.samples([0, 1, 0, 0, 2, 0,
                                                         0, 0]))
        kept = bs.quiet(windows, lambda w: w.steal)
        self.assertEqual(len(kept), 6)
        self.assertTrue(all(w.steal == 0 for w in kept))
        # One tick allowed: the window with one joins them.
        self.assertEqual(len(bs.quiet(windows, lambda w: w.steal, 1)), 7)

    def test_quarter_with_least_steal_when_few_are_quiet(self):
        windows = bs.split_windows([], [], self.samples([5, 1, 4, 0, 3, 2,
                                                         6, 7]))
        # Eight windows, one quiet: the two with the least steal, in
        # time order.
        self.assertEqual([w.steal for w in bs.quiet(windows, lambda w: w.steal)],
                         [1, 0])
        with self.assertRaises(ValueError):
            bs.quiet([], lambda w: w.steal)

    def test_quiet_items(self):
        # Set-up starts and editions: (seconds, steal ticks).
        starts = [(0.05, 0), (0.09, 2), (0.04, 0), (0.05, 0)]
        self.assertEqual(bs.quiet(starts, lambda s: s[1]),
                         [(0.05, 0), (0.04, 0), (0.05, 0)])
        # Three items, none quiet: the one with the least steal.
        self.assertEqual(bs.quiet([4.2, 4.9, 4.4], lambda s: {4.2: 3, 4.9: 9,
                                                             4.4: 1}[s]),
                         [4.4])

    def test_rate_over_windows(self):
        windows = bs.split_windows([], [], self.samples([0, 0, 0]))
        for window, done in zip(windows, (100, 300, 250)):
            window.done = done
        self.assertAlmostEqual(bs.window_rate(windows), 650 / 0.75)


EXPOSITION_BEFORE = """\
# HELP srpp_requests_total Admission decisions.
# TYPE srpp_requests_total counter
srpp_requests_total{tenant="web",code="ok"} 100
srpp_requests_total{tenant="web",code="shed"} 2
srpp_served_requests_total{tenant="web"} 100
srpp_batches_total{tenant="web"} 50
srpp_stage_duration_seconds_sum{stage="queue"} 0.5
srpp_stage_duration_seconds_count{stage="queue"} 100
srpp_tenant_info{tenant="web",method="weighted Simrank",scoring="on-demand",\
generation="1",reload="ok"} 1
srpp_row_cache_hits_total{tenant="web"} 40
srpp_row_cache_misses_total{tenant="web"} 60
srpp_tenant_queries_total{tenant="web"} 100
"""

EXPOSITION_AFTER_SAME_GENERATION = EXPOSITION_BEFORE.replace(
    '{tenant="web",code="ok"} 100', '{tenant="web",code="ok"} 300').replace(
    'srpp_served_requests_total{tenant="web"} 100',
    'srpp_served_requests_total{tenant="web"} 300').replace(
    'srpp_batches_total{tenant="web"} 50', 'srpp_batches_total{tenant="web"} 60'
).replace('{stage="queue"} 0.5', '{stage="queue"} 0.9').replace(
    'srpp_stage_duration_seconds_count{stage="queue"} 100',
    'srpp_stage_duration_seconds_count{stage="queue"} 300').replace(
    'srpp_row_cache_hits_total{tenant="web"} 40',
    'srpp_row_cache_hits_total{tenant="web"} 190').replace(
    'srpp_row_cache_misses_total{tenant="web"} 60',
    'srpp_row_cache_misses_total{tenant="web"} 110')


class ExpositionDiffTest(unittest.TestCase):
    def test_parse_labels_with_spaces_and_values(self):
        samples = bs.parse_exposition(EXPOSITION_BEFORE)
        self.assertEqual(bs.tenant_generations(samples), {"web": 1})
        key = ("srpp_requests_total",
               frozenset({("tenant", "web"), ("code", "ok")}))
        self.assertEqual(samples[key], 100.0)

    def test_window_diff(self):
        delta = bs.diff_samples(
            bs.parse_exposition(EXPOSITION_BEFORE),
            bs.parse_exposition(EXPOSITION_AFTER_SAME_GENERATION))
        self.assertEqual(bs.family_total(delta, "srpp_requests_total"), 200)
        self.assertEqual(
            bs.family_total(delta, "srpp_requests_total", code="ok"), 200)
        self.assertEqual(bs.family_total(delta, "srpp_batches_total"), 10)
        self.assertAlmostEqual(bs.stage_means_us(delta)["queue"], 2000.0)
        self.assertEqual(bs.family_total(delta, "srpp_row_cache_hits_total"),
                         150)

    def test_current_generation_counters_restart_after_reload(self):
        # After a reload the row-cache counters start again from zero:
        # the window's increase is the new generation's count, even
        # where that count already exceeds the old one.
        after = EXPOSITION_AFTER_SAME_GENERATION.replace(
            'generation="1"', 'generation="2"').replace(
            'srpp_row_cache_hits_total{tenant="web"} 190',
            'srpp_row_cache_hits_total{tenant="web"} 45').replace(
            'srpp_row_cache_misses_total{tenant="web"} 110',
            'srpp_row_cache_misses_total{tenant="web"} 7')
        delta = bs.diff_samples(bs.parse_exposition(EXPOSITION_BEFORE),
                                bs.parse_exposition(after))
        self.assertEqual(bs.family_total(delta, "srpp_row_cache_hits_total"),
                         45)
        self.assertEqual(
            bs.family_total(delta, "srpp_row_cache_misses_total"), 7)
        # Cumulative-across-generations counters still diff normally.
        self.assertEqual(
            bs.family_total(delta, "srpp_served_requests_total"), 200)

    def test_counter_that_went_backwards_counts_from_zero(self):
        before = bs.parse_exposition('srpp_responses_total 500\n')
        after = bs.parse_exposition('srpp_responses_total 30\n')
        self.assertEqual(bs.family_total(bs.diff_samples(before, after),
                                         "srpp_responses_total"), 30)

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(bs.ratio(0, 0), 0.0)
        self.assertEqual(bs.ratio(1, 4), 0.25)


class SpanTest(unittest.TestCase):
    def test_self_time(self):
        self.assertAlmostEqual(bs.self_time((0.0, 10.0), []), 10.0)
        self.assertAlmostEqual(
            bs.self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]),
            10.0 - 3.0 - 2.0)

    def test_edition_children_add_up_to_refresh_time(self):
        # graph write, child start, LoadGraph, Run, export, save, child
        # exit, manifest swap, first visible TopK: contiguous leaves.
        edges = [100.0, 100.01, 100.013, 100.02, 100.12, 100.125, 100.13,
                 100.132, 100.133, 100.21]
        leaves = list(zip(edges, edges[1:]))
        self.assertAlmostEqual(bs.coverage((100.0, 100.21), leaves), 1.0)
        # Without the child's start-up and exit the leaves miss part of
        # the edition.
        partial = leaves[:1] + leaves[2:6] + leaves[7:]
        self.assertLess(bs.coverage((100.0, 100.21), partial), 0.99)


class MachineTest(unittest.TestCase):
    def test_comparable_only_when_every_field_agrees(self):
        a = {"nproc": 4, "cpu_model": "x", "simd_level": "avx512",
             "compiler": "gcc 12", "build_type": "RelWithDebInfo",
             "kernel": "6.1"}
        self.assertTrue(bs.machines_comparable(a, dict(a)))
        for key in bs.MACHINE_KEYS:
            other = dict(a)
            other[key] = "different"
            self.assertFalse(bs.machines_comparable(a, other), key)


if __name__ == "__main__":
    unittest.main()
