"""The bounded latency histogram (:class:`repro.obs.Histogram`).

The observability tentpole hangs per-op request latency off fixed
log-spaced buckets, so these tests pin the accuracy contract down hard:

* count and sum are **exact** — only quantiles are estimates;
* a quantile estimate is off from ``numpy.percentile`` of the raw
  observations — compared under ``method="inverted_cdf"``, the same
  count-rank definition a bucketed estimator implements — by at most
  one bucket ratio in each direction (``r = 10**(1/per_decade)``,
  checked via hypothesis);
* bucket counts are non-negative and total to the exact count;
* eight threads hammering ``observe`` lose nothing (the lock works);
* :func:`log_buckets` / :func:`bucket_quantile` edge cases hold;
* :func:`latency_summary` (the one histogram-to-latency-row function)
  and :func:`sample_quantile` (the one raw-sample quantile) give
  hand-computed rows.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, bucket_quantile, log_buckets
from repro.obs.registry import latency_summary, registry, sample_quantile


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    registry.reset()


# Default bucket geometry: 5 per decade -> adjacent bounds ratio r.
RATIO = 10.0 ** (1.0 / 5.0)
# Linear interpolation inside a bucket can land anywhere within it, so
# the estimate vs. the true quantile is bounded by one full bucket span
# in ratio terms (r**2 gives slack for the true value sitting at the
# opposite edge of the neighbouring bucket).
QUANTILE_RATIO_BOUND = RATIO**2


class TestLogBuckets:
    def test_default_geometry(self):
        bounds = log_buckets()
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] >= 100.0
        assert len(bounds) == 41

    def test_ratio_between_adjacent_bounds(self):
        bounds = log_buckets(lo=1e-3, hi=10.0, per_decade=4)
        for a, b in zip(bounds, bounds[1:]):
            assert b / a == pytest.approx(10.0 ** (1 / 4))

    def test_covers_hi_inclusive(self):
        bounds = log_buckets(lo=0.5, hi=7.0, per_decade=3)
        assert bounds[-1] >= 7.0
        assert bounds[-2] < 7.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            log_buckets(lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            log_buckets(lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            log_buckets(per_decade=0)


class TestBucketQuantile:
    def test_empty_is_zero(self):
        assert bucket_quantile([1.0, 2.0], [0, 0, 0], 0.5) == 0.0

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            bucket_quantile([1.0], [1, 0], 1.5)
        with pytest.raises(ValueError):
            bucket_quantile([1.0], [1, 0], -0.1)

    def test_single_bucket_interpolates(self):
        # 4 observations in (1, 2]: the median sits mid-bucket.
        value = bucket_quantile([1.0, 2.0], [0, 4, 0], 0.5)
        assert 1.0 < value <= 2.0

    def test_clamped_to_observed_extremes(self):
        # All mass in one bucket, with exact min/max known: estimates
        # never leave [lo, hi].
        assert bucket_quantile([1.0, 2.0], [0, 5, 0], 0.0, lo=1.3, hi=1.7) >= 1.3
        assert bucket_quantile([1.0, 2.0], [0, 5, 0], 1.0, lo=1.3, hi=1.7) <= 1.7

    def test_overflow_bucket_uses_hi(self):
        # Everything above the last bound: without hi we can only say
        # "at least the last bound"; with hi the estimate uses it.
        assert bucket_quantile([1.0], [0, 3], 0.5) == 1.0
        assert bucket_quantile([1.0], [0, 3], 0.99, hi=9.0) <= 9.0


class TestLatencySummary:
    """Hand-computed rows over bounds (1, 2, 4] plus the overflow."""

    BOUNDS = (1.0, 2.0, 4.0)
    STATE = ((2, 4, 2, 0), 8, 17.0)

    def test_from_empty(self):
        # Median rank 4 of 8: two in (0, 1], then 2/4 into (1, 2].
        assert latency_summary(self.BOUNDS, self.STATE) == {
            "count": 8.0,
            "mean_s": 17.0 / 8,
            "p50_s": 1.5,
            "p95_s": pytest.approx(2.0 + (7.6 - 6.0) / 2 * 2.0),
            "p99_s": pytest.approx(2.0 + (7.92 - 6.0) / 2 * 2.0),
        }

    def test_between_two_states(self):
        since = ((1, 1, 0, 0), 2, 2.5)
        # Interval: buckets (1, 3, 2, 0), 6 observations summing 14.5.
        assert latency_summary(self.BOUNDS, self.STATE, since) == {
            "count": 6.0,
            "mean_s": 14.5 / 6,
            "p50_s": pytest.approx(1.0 + 2.0 / 3.0),
            "p95_s": pytest.approx(2.0 + (5.7 - 4.0) / 2 * 2.0),
            "p99_s": pytest.approx(2.0 + (5.94 - 4.0) / 2 * 2.0),
        }

    def test_empty_interval_is_all_zero(self):
        assert latency_summary(self.BOUNDS, self.STATE, self.STATE) == {
            "count": 0.0, "mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0,
            "p99_s": 0.0,
        }

    def test_overflow_reads_the_last_bound(self):
        row = latency_summary(self.BOUNDS, ((0, 0, 0, 3), 3, 30.0))
        assert row["mean_s"] == 10.0
        assert row["p50_s"] == row["p99_s"] == 4.0


class TestSampleQuantile:
    def test_hand_computed(self):
        samples = [3.0, 1.0, 4.0, 2.0]
        assert sample_quantile(samples, 0.0) == 1.0
        assert sample_quantile(samples, 0.5) == 2.5
        assert sample_quantile(samples, 0.95) == pytest.approx(3.85)
        assert sample_quantile(samples, 1.0) == 4.0
        assert sample_quantile([2.5], 0.99) == 2.5

    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(5)
        values = rng.lognormal(-5.0, 1.0, size=101).tolist()
        for q in (0.25, 0.5, 0.75, 0.95, 0.99):
            assert sample_quantile(values, q) == pytest.approx(
                np.percentile(values, q * 100.0), rel=1e-12
            )

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            sample_quantile([], 0.5)
        with pytest.raises(ValueError):
            sample_quantile([1.0], 95)


class TestHistogramExactness:
    def test_count_sum_min_max_exact(self):
        h = Histogram("t.exact")
        values = [0.001, 0.0042, 0.9, 3.7, 0.00001]
        for v in values:
            h.observe(v)
        assert h.count == len(values)
        assert h.sum == pytest.approx(sum(values))
        assert h.min == min(values)
        assert h.max == max(values)
        assert h.mean == pytest.approx(sum(values) / len(values))

    def test_bucket_counts_total_to_count(self):
        h = Histogram("t.total")
        rng = np.random.default_rng(3)
        for v in rng.lognormal(mean=-6.0, sigma=2.0, size=500):
            h.observe(float(v))
        counts, count, _ = h.state()
        assert sum(counts) == count == 500
        assert all(c >= 0 for c in counts)

    def test_rejects_non_monotonic_bounds(self):
        with pytest.raises(ValueError):
            Histogram("t.bad", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("t.dup", bounds=(1.0, 1.0))

    def test_empty_quantile_is_zero(self):
        assert Histogram("t.empty").quantile(0.5) == 0.0

    def test_reset_forgets_everything(self):
        h = Histogram("t.reset")
        h.observe(0.5)
        h.reset()
        assert h.count == 0 and h.sum == 0.0
        assert sum(h.state()[0]) == 0

    def test_state_deltas_are_a_valid_histogram(self):
        # The interval trick behind `repro top`: two snapshots subtract
        # into a well-formed histogram of just the interval.
        h = Histogram("t.delta")
        for v in (0.001, 0.002):
            h.observe(v)
        before = h.state()
        for v in (0.1, 0.2, 0.4):
            h.observe(v)
        after = h.state()
        delta = [a - b for a, b in zip(after[0], before[0])]
        assert sum(delta) == after[1] - before[1] == 3
        assert all(c >= 0 for c in delta)
        p50 = bucket_quantile(h.bounds, delta, 0.5)
        assert 0.05 < p50 < 0.5


class TestQuantileAccuracy:
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=300,
        ),
        st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_one_bucket_ratio_of_numpy(self, values, q):
        h = Histogram("t.acc")
        for v in values:
            h.observe(v)
        estimate = h.quantile(q)
        # inverted_cdf is the count-rank quantile definition a bucketed
        # estimator implements; the numpy default (linear interpolation
        # between order statistics) legitimately differs by more than a
        # bucket on tiny samples with large gaps (e.g. median of [1, 5]).
        true = float(
            np.percentile(np.asarray(values), q * 100.0, method="inverted_cdf")
        )
        if true <= 0.0:
            assert estimate <= h.bounds[0]
            return
        ratio = estimate / true
        assert 1.0 / QUANTILE_RATIO_BOUND <= ratio <= QUANTILE_RATIO_BOUND, (
            f"q={q}: estimate {estimate} vs numpy {true} "
            f"(ratio {ratio}, bound {QUANTILE_RATIO_BOUND})"
        )

    def test_extremes_are_exact(self):
        h = Histogram("t.extremes")
        for v in (0.013, 0.5, 2.4):
            h.observe(v)
        assert h.quantile(0.0) == pytest.approx(0.013)
        assert h.quantile(1.0) == pytest.approx(2.4)


class TestHistogramThreading:
    def test_eight_thread_observe_storm_loses_nothing(self):
        h = Histogram("t.storm")
        per_thread = 2000
        values = [1e-4 * (i % 37 + 1) for i in range(per_thread)]

        def hammer():
            for v in values:
                h.observe(v)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counts, count, total = h.state()
        assert count == 8 * per_thread
        assert sum(counts) == count
        assert total == pytest.approx(8 * sum(values))


class TestRegistryIntegration:
    def test_registry_histogram_get_or_create(self):
        a = registry.histogram("t.reg", op="x")
        b = registry.histogram("t.reg", op="x")
        c = registry.histogram("t.reg", op="y")
        assert a is b and a is not c

    def test_snapshot_exposes_quantiles(self):
        h = registry.histogram("t.standalone")
        for v in (0.01, 0.02, 0.03, 0.5):
            h.observe(v)
        registry.timer("t.snapq").observe(0.25)
        snap = registry.snapshot()
        assert snap["t.standalone.count"] == 4
        assert 0.01 <= snap["t.standalone.p50"] <= 0.5
        assert snap["t.standalone.p95"] <= snap["t.standalone.p99"] <= 0.5
        # Timers keep their four-number summary and no quantile keys.
        assert snap["t.snapq.count"] == 1
        assert not any(key.startswith("t.snapq.p") for key in snap)
