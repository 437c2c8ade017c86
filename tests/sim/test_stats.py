"""Tests for counters, time series, histograms, and the stats registry."""

import math

import pytest

from repro.sim.stats import (
    Counter,
    Histogram,
    LATENCY_BOUNDS,
    ScopedStats,
    StatsRegistry,
    TimeSeries,
    log_bounds,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0.0

    def test_add_accumulates(self):
        c = Counter("c")
        c.add(3)
        c.add()
        assert c.value == 4.0

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").add(-1)


class TestTimeSeries:
    def test_record_and_len(self):
        s = TimeSeries("s")
        s.record(0.0, 1.0)
        s.record(1.0, 2.0)
        assert len(s) == 2

    def test_append_only(self):
        s = TimeSeries("s")
        s.record(1.0, 1.0)
        with pytest.raises(ValueError):
            s.record(0.5, 2.0)


class TestLogBounds:
    def test_geometric_spacing(self):
        bounds = log_bounds(0.01, 100.0, per_decade=4)
        ratio = 10.0 ** 0.25
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi / lo == pytest.approx(ratio)
        assert bounds[0] == 0.01
        assert bounds[-1] >= 100.0

    def test_default_latency_bounds(self):
        assert LATENCY_BOUNDS[0] == 0.01
        assert LATENCY_BOUNDS[-1] >= 100.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            log_bounds(0.0, 1.0)
        with pytest.raises(ValueError):
            log_bounds(2.0, 1.0)
        with pytest.raises(ValueError):
            log_bounds(0.01, 1.0, per_decade=0)


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("h", bounds=[1.0, 10.0, 100.0])
        for v in (0.5, 1.0, 5.0, 10.0, 99.0, 100.0, 1e6):
            h.observe(v)
        # counts[i] covers [bounds[i-1], bounds[i]); the last bucket is the
        # overflow at/above the top boundary.
        assert h.counts == [1, 2, 2, 2]
        assert h.count == 7
        assert h.min == 0.5
        assert h.max == 1e6

    def test_mean_is_exact(self):
        h = Histogram("h", bounds=[1.0])
        for v in (0.25, 0.5, 0.75):
            h.observe(v)
        assert h.mean() == pytest.approx(0.5)

    def test_empty(self):
        h = Histogram("h", bounds=[1.0])
        assert h.mean() == 0.0
        assert h.quantile(0.5) == 0.0

    def test_quantiles(self):
        h = Histogram("h", bounds=[1.0, 2.0, 4.0])
        for v in [0.5] * 50 + [1.5] * 40 + [3.0] * 10:
            h.observe(v)
        assert h.quantile(0.0) == 0.5  # exact min
        assert h.quantile(0.5) == 1.0  # median falls in the first bucket
        assert h.quantile(0.95) == 4.0  # bucket upper bound
        assert h.quantile(1.0) == 4.0

    def test_quantile_overflow_bucket_uses_exact_max(self):
        h = Histogram("h", bounds=[1.0])
        h.observe(7.5)
        assert h.quantile(1.0) == 7.5

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=[1.0]).quantile(1.5)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=[1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", bounds=[])

    def test_dict_round_trip(self):
        h = Histogram("lat", bounds=[0.5, 1.0])
        for v in (0.1, 0.7, 3.0):
            h.observe(v)
        clone = Histogram.from_dict(h.to_dict())
        assert clone.name == h.name
        assert clone.bounds == h.bounds
        assert clone.counts == h.counts
        assert clone.count == h.count
        assert clone.total == h.total
        assert clone.min == h.min and clone.max == h.max

    def test_empty_dict_round_trip(self):
        clone = Histogram.from_dict(Histogram("h", bounds=[1.0]).to_dict())
        assert clone.count == 0
        assert math.isinf(clone.min) and math.isinf(clone.max)


class TestStatsRegistry:
    def test_counter_is_memoized(self, stats):
        assert stats.counter("a") is stats.counter("a")

    def test_series_is_memoized(self, stats):
        assert stats.series("a") is stats.series("a")

    def test_histogram_is_memoized(self, stats):
        assert stats.histogram("h") is stats.histogram("h")

    def test_histogram_bounds_conflict_rejected(self, stats):
        stats.histogram("h", bounds=[1.0, 2.0])
        with pytest.raises(ValueError, match="different bounds"):
            stats.histogram("h", bounds=[1.0, 3.0])

    def test_counters_snapshot(self, stats):
        stats.counter("x").add(2)
        stats.counter("y").add(3)
        assert stats.counters() == {"x": 2.0, "y": 3.0}

    def test_histograms_snapshot(self, stats):
        stats.histogram("h", bounds=[1.0]).observe(0.5)
        snap = stats.histograms()
        assert snap["h"]["count"] == 1
        assert snap["h"]["counts"] == [1, 0]

    def test_series_data_snapshot(self, stats):
        s = stats.series("s")
        s.record(0.0, 1.0)
        s.record(1.0, 2.0)
        assert stats.series_data() == {
            "s": {"times": [0.0, 1.0], "values": [1.0, 2.0]}
        }


class TestScopedStats:
    def test_prefixes_every_kind(self, stats):
        scoped = stats.scoped("mgr")
        scoped.counter("c").add(1)
        scoped.series("s").record(0.0, 1.0)
        scoped.histogram("h").observe(0.02)
        assert "mgr.c" in stats.counters()
        assert "mgr.s" in stats.series_data()
        assert "mgr.h" in stats.histograms()

    def test_shares_the_underlying_stat(self, stats):
        scoped = stats.scoped("mgr")
        assert scoped.counter("c") is stats.counter("mgr.c")

    def test_nested_scopes(self, stats):
        inner = stats.scoped("a").scoped("b")
        assert isinstance(inner, ScopedStats)
        inner.counter("c").add(1)
        assert stats.counters() == {"a.b.c": 1.0}

    def test_two_managers_cannot_collide(self, stats):
        stats.scoped("hemem").counter("pages_migrated").add(1)
        stats.scoped("nimble").counter("pages_migrated").add(5)
        snap = stats.counters()
        assert snap["hemem.pages_migrated"] == 1.0
        assert snap["nimble.pages_migrated"] == 5.0

    def test_empty_prefix_rejected(self, stats):
        with pytest.raises(ValueError):
            stats.scoped("")
