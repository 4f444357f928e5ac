"""Unit tests for the sim-time telemetry sampler."""

import pytest

from repro.errors import ReproError
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TelemetrySampler
from repro.obs.sink import MemoryTelemetrySink
from repro.sim.engine import Simulator


def samples(sampler, name, labels=None):
    """(time, value) of one series' ``sample`` rows in the sampler's sink."""
    return [
        (row["time"], row["value"])
        for row in sampler.sink.rows
        if row["kind"] == "sample" and row["name"] == name
        and (labels is None or row["labels"] == labels)
    ]


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

        assert samples(sampler, "g") == [(0.0, 1.0), (10.0, 1.0), (20.0, 5.0), (30.0, 5.0)]

    def test_counters_sampled_by_default(self):
        sim = Simulator()
        registry = MetricsRegistry()
        counter = registry.counter("c")
        sampler = TelemetrySampler(sim, registry, period_s=10.0)
        sampler.start()
        sim.schedule_at(5.0, lambda: counter.inc(3.0), name="inc")
        sim.run(until=10.0)
        assert [value for _, value in samples(sampler, "c")] == [0.0, 3.0]

    def test_counter_sampling_can_be_disabled(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.counter("c")
        sampler = TelemetrySampler(sim, registry, period_s=10.0, sample_counters=False)
        sampler.start()
        sim.run(until=20.0)
        assert samples(sampler, "c") == []

    def test_labeled_instruments_get_distinct_series(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("link.util", labels={"link": "a"}, callback=lambda: 0.25)
        registry.gauge("link.util", labels={"link": "b"}, callback=lambda: 0.75)
        sampler = TelemetrySampler(sim, registry, period_s=10.0)
        sampler.start()
        sim.run(until=10.0)
        assert samples(sampler, "link.util", {"link": "a"}) == [(0.0, 0.25), (10.0, 0.25)]
        assert samples(sampler, "link.util", {"link": "b"}) == [(0.0, 0.75), (10.0, 0.75)]
        assert {row["name"] for row in sampler.sink.rows} == {"link.util"}

    def test_each_tick_writes_its_rows_when_taken(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("g", callback=lambda: int(sim.now))
        registry.counter("c")
        sampler = TelemetrySampler(sim, registry, period_s=1.0)
        sampler.start()
        while sim.peek() is not None and sim.peek() <= 10.0:
            sim.step()
            # Every tick up to now is already in the sink: nothing waits.
            assert [(row["name"], row["time"]) for row in sampler.sink.rows] == [
                (name, float(t)) for t in range(int(sim.now) + 1) for name in ("g", "c")
            ]
        # A gauge's integer reading is written as a float, as a time is.
        assert samples(sampler, "g")[-1] == (10.0, 10.0)
        assert all(isinstance(row["value"], float) for row in sampler.sink.rows)

    def test_instruments_registered_mid_run_join_sampling(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("m", callback=lambda: 0.0)
        sampler = TelemetrySampler(sim, registry, period_s=10.0)
        sampler.start()

        def register():
            registry.gauge("late", callback=lambda: 1.0)
            registry.gauge("a.first", callback=lambda: 2.0)  # sorts before "m"

        sim.schedule_at(15.0, register, name="register")
        sim.run(until=30.0)
        for name in ("late", "a.first"):
            assert [t for t, _ in samples(sampler, name)] == [20.0, 30.0]
        # Each tick writes in sorted sampling order: the late "a.first"
        # ahead of the original "m".
        assert [(row["name"], row["time"]) for row in sampler.sink.rows] == [
            ("m", 0.0), ("m", 10.0),
            ("a.first", 20.0), ("late", 20.0), ("m", 20.0),
            ("a.first", 30.0), ("late", 30.0), ("m", 30.0),
        ]

    def test_a_new_sink_takes_the_next_tick(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("g", callback=lambda: 1.0)
        sampler = TelemetrySampler(sim, registry, period_s=10.0)
        first = sampler.sink
        sampler.start()
        sim.run(until=10.0)
        sampler.sink = MemoryTelemetrySink()
        sim.run(until=30.0)
        assert samples(sampler, "g") == [(20.0, 1.0), (30.0, 1.0)]
        assert [row["time"] for row in first.rows] == [0.0, 10.0]


class TestLifecycle:
    def test_disabled_registry_start_is_noop(self):
        sim = Simulator()
        sampler = TelemetrySampler(sim, MetricsRegistry(enabled=False))
        sampler.start()
        sim.run(until=600.0)
        assert sampler.sink is None
        assert sim.events_fired == 0

    def test_start_is_idempotent(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("g", callback=lambda: 1.0)
        sampler = TelemetrySampler(sim, registry, period_s=10.0)
        sampler.start()
        sampler.start()
        sim.run(until=10.0)
        # One immediate sample plus one periodic — not doubled.
        assert len(samples(sampler, "g")) == 2

    def test_invalid_period_rejected(self):
        with pytest.raises(ReproError):
            TelemetrySampler(Simulator(), MetricsRegistry(), period_s=0.0)
