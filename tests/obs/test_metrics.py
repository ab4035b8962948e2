"""Metric primitives: counters, gauges, fixed-bucket histograms."""

import pytest

from repro.obs import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_rejected(self):
        counter = MetricsRegistry().counter("requests_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("hits", shard="a").inc()
        registry.counter("hits", shard="b").inc(2)
        assert registry.value("hits", shard="a") == 1
        assert registry.value("hits", shard="b") == 2
        assert registry.total("hits") == 3

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x", a=1) is registry.counter("x", a=1)

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        one = registry.counter("x", a=1, b=2)
        two = registry.counter("x", b=2, a=1)
        assert one is two
        assert registry.counter("x", b=2, a=1) is one  # now from the index
        assert registry.counter("x", a="1", b="2") is one
        assert len(registry) == 1


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("queue_depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3


class TestHistogramBuckets:
    def test_boundary_lands_in_its_bucket(self):
        # Cumulative-le semantics: an observation equal to a bound
        # belongs to that bound's bucket, not the next one.
        h = Histogram("lat", buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)
        assert h.counts == [1, 0, 0, 0]
        h.observe(1.0000001)
        assert h.counts == [1, 1, 0, 0]
        h.observe(5.0)
        assert h.counts == [1, 1, 1, 0]

    def test_overflow_goes_to_inf_slot(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(99.0)
        assert h.counts == [0, 1]
        assert h.cumulative() == [0, 1]

    def test_cumulative_is_monotone_and_totals(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 0.5, 1.5, 9.0):
            h.observe(v)
        assert h.cumulative() == [2, 3, 4]
        assert h.count == 4
        assert h.total == pytest.approx(11.5)
        assert h.mean == pytest.approx(11.5 / 4)

    def test_a_weighted_observation_is_that_many_observations(self):
        weighted = Histogram("lat", buckets=(1.0, 2.0))
        repeated = Histogram("lat", buckets=(1.0, 2.0))
        for value, count in ((0.5, 3), (1.0, 1), (1.5, 63), (9.0, 2)):
            weighted.observe(value, count=count)
            for _ in range(count):
                repeated.observe(value)
        assert weighted.counts == repeated.counts == [4, 63, 2]
        assert weighted.count == repeated.count == 69
        assert weighted.cumulative() == repeated.cumulative()
        assert weighted.total == pytest.approx(repeated.total)

    def test_percentile_reports_bucket_upper_bound(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 5.0))
        for v in (0.1, 0.2, 0.3, 4.0):
            h.observe(v)
        assert h.percentile(50) == 1.0
        assert h.percentile(99) == 5.0

    def test_percentile_overflow_reports_last_finite_bound(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(100.0)
        assert h.percentile(50) == 2.0

    def test_percentile_empty_and_bounds(self):
        h = Histogram("lat", buckets=(1.0,))
        assert h.percentile(50) == 0.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())

    def test_default_buckets(self):
        h = MetricsRegistry().histogram("lat")
        assert h.buckets == DEFAULT_LATENCY_BUCKETS


class TestRegistryIdentity:
    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_type_conflict_raises_for_an_indexed_spelling(self):
        registry = MetricsRegistry()
        for _ in range(2):
            registry.counter("x", shard="a")
        with pytest.raises(ValueError):
            registry.gauge("x", shard="a")
        with pytest.raises(ValueError):
            registry.histogram("x", shard="a")

    def test_histogram_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("lat", buckets=(1.0, 3.0))
        # Same buckets are fine (get-or-create).
        registry.histogram("lat", buckets=(1.0, 2.0))

    def test_histogram_without_buckets_joins_the_family(self):
        registry = MetricsRegistry()
        first = registry.histogram("lat", buckets=(1, 2), shard="a")
        assert registry.histogram("lat", shard="a") is first
        assert registry.histogram("lat", shard="b").buckets == (1.0, 2.0)
        assert registry.histogram("new").buckets == DEFAULT_LATENCY_BUCKETS
        with pytest.raises(ValueError):
            registry.histogram("new", buckets=(1.0,))

    def test_all_metrics_sorted_by_name_then_labels(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a", z=2)
        registry.counter("a", z=1)
        names = [(m.name, m.labels) for m in registry.all_metrics()]
        assert names == sorted(names)

    def test_value_defaults_to_zero(self):
        assert MetricsRegistry().value("never_touched") == 0.0
