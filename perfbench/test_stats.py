"""Tests of the benchmark's own arithmetic (stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


def hist(counts, lo, hi, edges=(10, 20, 40, 80)):
    """A snapshot in the RunResult layout: counts has one overflow bucket,
    and lo/hi are the observed min and max."""
    assert len(counts) == len(edges) + 1
    return {"edges": list(edges), "counts": list(counts), "count": sum(counts),
            "min": lo, "max": hi}


class HighestPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertEqual(stats.highest_percentile(999), 90.0)
        self.assertEqual(stats.highest_percentile(10_000), 99.9)
        self.assertEqual(stats.highest_percentile(100_000), 99.99)

    def test_too_few_samples(self):
        self.assertEqual(stats.highest_percentile(20), 50.0)
        self.assertIsNone(stats.highest_percentile(19))
        self.assertIsNone(stats.highest_percentile(0))

    def test_workload_sample_counts(self):
        # Commits of the three workloads at seed 1: p99 holds on all three.
        for committed in (62_694, 3_024, 5_594):
            self.assertGreaterEqual(stats.highest_percentile(committed), 99.0)
            self.assertGreaterEqual(stats.samples_beyond(committed, 99.0), 10)


class HistogramQuantile(unittest.TestCase):
    def test_interpolates_inside_the_bucket(self):
        # 100 samples in (20, 40]: the median sits halfway through it.
        h = hist([0, 0, 100, 0, 0], lo=20, hi=40)
        self.assertAlmostEqual(stats.histogram_quantile(h, 0.5), 30.0)
        self.assertAlmostEqual(stats.histogram_quantile(h, 0.99), 39.8)
        self.assertAlmostEqual(stats.histogram_quantile(h, 1.0), 40.0)

    def test_crosses_buckets_by_rank(self):
        # 50 in (0,10], 50 in (10,20]: rank 75 is halfway through the second.
        h = hist([50, 50, 0, 0, 0], lo=0, hi=20)
        self.assertAlmostEqual(stats.histogram_quantile(h, 0.75), 15.0)
        self.assertAlmostEqual(stats.histogram_quantile(h, 0.5), 10.0)

    def test_clamped_to_observed_span(self):
        # All samples in (40, 80] but observed between 50 and 60.
        h = hist([0, 0, 0, 10, 0], lo=50, hi=60)
        self.assertAlmostEqual(stats.histogram_quantile(h, 0.5), 55.0)
        self.assertLessEqual(stats.histogram_quantile(h, 1.0), 60)

    def test_overflow_bucket_uses_max(self):
        h = hist([0, 0, 0, 0, 4], lo=100, hi=500)
        self.assertAlmostEqual(stats.histogram_quantile(h, 0.5), 300.0)

    def test_empty_histogram_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.histogram_quantile(hist([0, 0, 0, 0, 0], lo=0, hi=0), 0.5)


class Failures(unittest.TestCase):
    def test_failures_count_against_sent(self):
        self.assertAlmostEqual(stats.commit_pct(31_347, 5_594), 17.8454078540)
        self.assertAlmostEqual(stats.failure_share(31_347, 5_594),
                               (31_347 - 5_594) / 31_347)
        self.assertEqual(stats.failure_share(100, 100), 0.0)

    def test_committed_above_sent_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.commit_pct(10, 11)


class Ratios(unittest.TestCase):
    def test_ratio_with_its_base(self):
        # fifa_srbb, seed 1: 2,775,224 messages over 62,694 commits.
        self.assertAlmostEqual(stats.ratio(2_775_224, 62_694), 44.2661818, places=6)
        # fifa_evmdbft, seed 1: 308,550 eager validations over 5,594 commits.
        self.assertAlmostEqual(stats.ratio(308_550, 5_594), 55.1573114, places=6)

    def test_zero_base_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.ratio(1, 0)


class TraceOverhead(unittest.TestCase):
    def test_difference_in_percent_of_untraced(self):
        self.assertAlmostEqual(stats.overhead_pct(10.5, 10.0), 5.0)
        self.assertAlmostEqual(stats.overhead_pct(9.8, 10.0), -2.0)
        self.assertEqual(stats.overhead_pct(7.0, 7.0), 0.0)


class Spread(unittest.TestCase):
    def test_iqr_share_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        # quantiles(n=4), exclusive method: q1 = 2.75, q3 = 8.25, median 5.5.
        self.assertAlmostEqual(stats.iqr_share(values), (8.25 - 2.75) / 5.5)


if __name__ == "__main__":
    unittest.main()
