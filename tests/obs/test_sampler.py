"""Unit tests for the sim-time telemetry sampler."""

import pytest

from repro.errors import ReproError
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TelemetrySampler
from repro.sim.engine import Simulator


class TestSampling:
    def test_gauges_sampled_on_the_simulated_clock(self):
        sim = Simulator()
        registry = MetricsRegistry()
        box = {"v": 1.0}
        registry.gauge("g", callback=lambda: box["v"])
        sampler = TelemetrySampler(sim, registry, period_s=10.0)
        sampler.start()

        sim.schedule_at(15.0, lambda: box.update(v=5.0), name="bump")
        sim.run(until=30.0)

        series = sampler.get("g")
        assert series is not None
        assert series.samples() == [(0.0, 1.0), (10.0, 1.0), (20.0, 5.0), (30.0, 5.0)]
        assert sampler.sample_count >= 3

    def test_counters_sampled_by_default(self):
        sim = Simulator()
        registry = MetricsRegistry()
        counter = registry.counter("c")
        sampler = TelemetrySampler(sim, registry, period_s=10.0)
        sampler.start()
        sim.schedule_at(5.0, lambda: counter.inc(3.0), name="inc")
        sim.run(until=10.0)
        assert sampler.get("c").values() == [0.0, 3.0]

    def test_counter_sampling_can_be_disabled(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.counter("c")
        sampler = TelemetrySampler(sim, registry, period_s=10.0, sample_counters=False)
        sampler.start()
        sim.run(until=20.0)
        assert sampler.get("c") is None

    def test_labeled_instruments_get_distinct_series(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("link.util", labels={"link": "a"}, callback=lambda: 0.25)
        registry.gauge("link.util", labels={"link": "b"}, callback=lambda: 0.75)
        sampler = TelemetrySampler(sim, registry, period_s=10.0)
        sampler.start()
        sim.run(until=10.0)
        pairs = sampler.series_for("link.util")
        assert [labels for labels, _ in pairs] == [{"link": "a"}, {"link": "b"}]
        assert sampler.families() == ["link.util"]

    def test_ring_capacity_drops_oldest(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("g", callback=lambda: sim.now)
        registry.counter("c")
        sampler = TelemetrySampler(sim, registry, period_s=1.0, capacity=4)
        spilled = []
        sampler.set_spill(
            lambda name, labels, times, values: spilled.extend((name, t) for t in times)
        )
        sampler.start()
        while sim.peek() is not None and sim.peek() <= 10.0:
            sim.step()
            # The running count is the sum of ring lengths, tick by tick.
            assert sampler.resident_samples() == sum(
                len(s) for s in sampler.series().values()
            )
        series = sampler.get("g")
        assert len(series) == 4
        assert series.dropped_count == 7
        assert series.samples()[-1] == (10.0, 10.0)
        assert sampler.resident_samples() == 8
        # Every evicted sample reached the hook: oldest first, and within a
        # tick in sampling order (gauges, then counters).
        assert spilled == [(name, float(t)) for t in range(7) for name in ("g", "c")]

    def test_instruments_registered_mid_run_join_sampling(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("m", callback=lambda: 0.0)
        sampler = TelemetrySampler(sim, registry, period_s=10.0, capacity=2)
        spilled = []
        sampler.set_spill(
            lambda name, labels, times, values: spilled.extend((name, t) for t in times)
        )
        sampler.start()

        def register():
            registry.gauge("late", callback=lambda: 1.0)
            registry.gauge("a.first", callback=lambda: 2.0)  # sorts before "m"

        sim.schedule_at(15.0, register, name="register")
        sim.run(until=30.0)
        for name in ("late", "a.first"):
            assert [t for t, _ in sampler.get(name).samples()] == [20.0, 30.0]
        assert spilled == [("m", 0.0), ("m", 10.0)]
        # Once the newcomers overflow too, each tick spills in sorted
        # sampling order: the late "a.first" ahead of the original "m".
        del spilled[:]
        sim.run(until=50.0)
        assert spilled == [
            ("a.first", 20.0), ("late", 20.0), ("m", 20.0),
            ("a.first", 30.0), ("late", 30.0), ("m", 30.0),
        ]
        assert sampler.resident_samples() == 6


class TestLifecycle:
    def test_disabled_registry_start_is_noop(self):
        sim = Simulator()
        sampler = TelemetrySampler(sim, MetricsRegistry(enabled=False))
        sampler.start()
        sim.run(until=600.0)
        assert sampler.series() == {}
        assert sampler.sample_count == 0

    def test_stop_keeps_recorded_series(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("g", callback=lambda: 1.0)
        sampler = TelemetrySampler(sim, registry, period_s=10.0)
        sampler.start()
        sim.run(until=10.0)
        sampler.stop()
        sim.run(until=100.0)
        assert len(sampler.get("g")) == 2

    def test_start_is_idempotent(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("g", callback=lambda: 1.0)
        sampler = TelemetrySampler(sim, registry, period_s=10.0)
        sampler.start()
        sampler.start()
        sim.run(until=10.0)
        # One immediate sample plus one periodic — not doubled.
        assert len(sampler.get("g")) == 2

    def test_invalid_period_rejected(self):
        with pytest.raises(ReproError):
            TelemetrySampler(Simulator(), MetricsRegistry(), period_s=0.0)
