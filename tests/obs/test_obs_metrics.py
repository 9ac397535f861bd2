"""Metrics core: counters, gauges, fixed-bucket histograms, and the registry."""

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.utils.timing import fake_clock


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        counter = Counter("repro_test_total")
        counter.inc(endpoint="select")
        counter.inc(2.5, endpoint="select")
        counter.inc(endpoint="assess")
        assert counter.value(endpoint="select") == 3.5
        assert counter.value(endpoint="assess") == 1.0
        assert counter.value(endpoint="never") == 0.0

    def test_negative_increment_is_rejected(self):
        counter = Counter("repro_test_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1.0)

    def test_set_total_mirrors_but_never_regresses(self):
        counter = Counter("repro_test_total")
        counter.set_total(10)
        counter.set_total(10)  # idempotent re-ingest is fine
        counter.set_total(12)
        assert counter.value() == 12.0
        with pytest.raises(ValueError, match="cannot regress"):
            counter.set_total(11)

    def test_label_order_does_not_matter(self):
        counter = Counter("repro_test_total")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1.0


class TestGauge:
    def test_set_and_inc_go_both_ways(self):
        gauge = Gauge("repro_test")
        gauge.set(5.0)
        gauge.inc(-2.0)
        assert gauge.value() == 3.0
        gauge.set(0.5)
        assert gauge.value() == 0.5


class TestHistogram:
    def test_observations_land_in_the_right_buckets(self):
        histogram = Histogram("repro_test_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        series = histogram.series()
        # Upper bounds are inclusive (Prometheus convention): 0.1 falls in
        # the first bucket, 1.0 in the second, 100.0 overflows to +Inf.
        assert series.counts == [2, 2, 1, 1]
        assert series.count == 6
        assert series.sum == pytest.approx(106.65)
        assert histogram.cumulative_counts() == [2, 4, 5, 6]

    def test_observe_many_matches_one_observe_per_value(self):
        values = (0.05, 0.1, 0.5, 1.0, 5.0, 100.0, 0.3)
        one_by_one = Histogram("repro_test_seconds", buckets=(0.1, 1.0, 10.0))
        for value in values:
            one_by_one.observe(value, endpoint="select")
        bulk = Histogram("repro_test_seconds", buckets=(0.1, 1.0, 10.0))
        bulk.observe_many(iter(values), endpoint="select")
        expected = one_by_one.series(endpoint="select")
        series = bulk.series(endpoint="select")
        assert series.counts == expected.counts == [2, 3, 1, 1]
        assert series.count == expected.count == 7
        # Same values summed in the same order: bit-identical.
        assert series.sum == expected.sum

    def test_observe_many_of_nothing_creates_no_series(self):
        histogram = Histogram("repro_test_seconds", buckets=(1.0,))
        histogram.observe_many([], endpoint="idle")
        assert histogram.series(endpoint="idle") is None
        assert list(histogram.samples()) == []

    def test_unobserved_label_set_reads_as_empty(self):
        histogram = Histogram("repro_test_seconds", buckets=(1.0,))
        assert histogram.series(endpoint="never") is None
        assert histogram.cumulative_counts(endpoint="never") == [0, 0]

    def test_edges_must_be_strictly_increasing_and_non_empty(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("repro_test_seconds", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("repro_test_seconds", buckets=())

    def test_default_edges_are_the_latency_ladder(self):
        histogram = Histogram("repro_test_seconds")
        assert histogram.buckets == DEFAULT_LATENCY_BUCKETS
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_time_records_exact_fake_clock_durations(self):
        histogram = Histogram("repro_test_seconds", buckets=(0.1, 1.0, 10.0))
        with fake_clock() as clock:
            with histogram.time(endpoint="select"):
                clock.advance(0.25)
            with histogram.time(endpoint="select"):
                clock.advance(2.0)
        series = histogram.series(endpoint="select")
        assert series.counts == [0, 1, 1, 0]
        assert series.sum == 2.25
        assert series.count == 2


class TestMetricsRegistry:
    def test_get_or_create_returns_the_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_a_total", "help text")
        again = registry.counter("repro_a_total")
        assert first is again
        assert first.help == "help text"

    def test_type_mismatch_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total")
        with pytest.raises(TypeError, match="already registered as a counter"):
            registry.gauge("repro_a_total")
        with pytest.raises(TypeError, match="not a histogram"):
            registry.histogram("repro_a_total")

    def test_histogram_edges_are_frozen_at_first_registration(self):
        registry = MetricsRegistry()
        registry.histogram("repro_a_seconds", buckets=(1.0, 2.0))
        assert registry.histogram("repro_a_seconds", buckets=(1.0, 2.0)) is not None
        with pytest.raises(ValueError, match="edges are fixed"):
            registry.histogram("repro_a_seconds", buckets=(1.0, 3.0))

    def test_iteration_is_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.gauge("repro_z")
        registry.counter("repro_a_total")
        registry.histogram("repro_m_seconds")
        assert [metric.name for metric in registry] == [
            "repro_a_total",
            "repro_m_seconds",
            "repro_z",
        ]
        assert registry.names() == ("repro_a_total", "repro_m_seconds", "repro_z")
        assert "repro_z" in registry
        assert len(registry) == 3

    def test_bad_metric_names_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="metric name"):
            registry.counter("repro bad name")
        with pytest.raises(ValueError, match="metric name"):
            registry.gauge("")

    def test_get_raises_on_unknown_name(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.get("repro_missing")
