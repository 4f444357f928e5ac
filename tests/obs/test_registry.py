"""Unit tests for the metrics registry and its instruments."""

import pytest

from repro.errors import ReproError
from repro.obs.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        counter = Counter("c")
        with pytest.raises(ReproError):
            counter.inc(-1.0)


class TestGauge:
    def test_callback_backed(self):
        box = {"v": 1.0}
        gauge = Gauge("g", callback=lambda: box["v"])
        assert gauge.value == 1.0
        box["v"] = 9.0
        assert gauge.value == 9.0


class TestHistogram:
    def test_streaming_stats(self):
        hist = Histogram("h")
        for v in (1.0, 2.0, 3.0, 10.0):
            hist.observe(v)
        assert hist.count == 4
        assert hist.mean == pytest.approx(4.0)
        assert hist.min == 1.0
        assert hist.max == 10.0

    def test_empty_percentile_is_zero(self):
        assert Histogram("h").percentile(50) == 0.0

    def test_percentiles_nearest_rank(self):
        hist = Histogram("h")
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.percentile(50.0) == 50.0
        assert hist.percentile(95.0) == 95.0
        assert hist.percentile(100.0) == 100.0

    def test_empty_summary(self):
        assert Histogram("h").summary() == {
            "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0,
        }

    def test_ring_bounds_percentile_memory_but_not_totals(self):
        hist = Histogram("h", ring_size=4)
        for v in range(1, 11):
            hist.observe(float(v))
        assert hist.count == 10
        assert hist.max == 10.0
        # Only the 4 most recent observations back the percentile.
        assert hist.percentile(0.0) >= 7.0

    def test_invalid_ring_size(self):
        with pytest.raises(ReproError):
            Histogram("h", ring_size=0)

    def test_percentile_caches_sorted_ring_until_next_observe(self):
        hist = Histogram("h")
        for v in (5.0, 1.0, 3.0):
            hist.observe(v)
        assert hist._sorted is None  # nothing cached before the first query
        assert hist.percentile(50.0) == 3.0
        cached = hist._sorted
        assert cached == [1.0, 3.0, 5.0]
        # Repeated percentile calls (e.g. one summary() rendering several
        # quantiles) reuse the same sorted list — no re-sort.
        assert hist.percentile(95.0) == 5.0
        assert hist._sorted is cached
        # A new observation invalidates the cache and the next query
        # reflects it.
        hist.observe(0.5)
        assert hist._sorted is None
        assert hist.percentile(0.0) == 0.5


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("vra.decisions", subsystem="core")
        b = registry.counter("vra.decisions", subsystem="core")
        assert a is b
        assert len(registry) == 1

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("server.serves", labels={"server": "U1"})
        b = registry.counter("server.serves", labels={"server": "U2"})
        assert a is not b
        assert a.label_dict() == {"server": "U1"}
        labels = [c.label_dict() for c in registry.counters()]
        assert labels == [{"server": "U1"}, {"server": "U2"}]

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels={"x": "1", "y": "2"})
        b = registry.counter("c", labels={"y": "2", "x": "1"})
        assert a is b

    def test_same_name_different_kind_coexists(self):
        registry = MetricsRegistry()
        registry.counter("f")
        registry.gauge("f")
        assert len(registry) == 2
        assert registry.families() == ["f"]

    def test_catalog_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        registry.histogram("c")
        registry.gauge("d")
        assert [c.name for c in registry.counters()] == ["a", "b"]
        assert registry.families() == ["a", "b", "c", "d"]

    def test_gauge_callback_kept_from_first_registration(self):
        registry = MetricsRegistry()
        first = registry.gauge("g", callback=lambda: 7.0)
        again = registry.gauge("g")
        assert again is first
        assert again.value == 7.0


class TestDisabledRegistry:
    def test_hands_out_shared_noops_and_registers_nothing(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_COUNTER
        assert registry.gauge("b") is NULL_GAUGE
        assert registry.histogram("c") is NULL_HISTOGRAM
        assert len(registry) == 0
        assert registry.families() == []

    def test_noop_instruments_record_nothing(self):
        NULL_COUNTER.inc(5.0)
        NULL_HISTOGRAM.observe(5.0)
        assert NULL_COUNTER.value == 0.0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0
