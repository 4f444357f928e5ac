"""Unit tests for the structured tracer."""

import io
import json

from repro.obs.sink import MemoryTelemetrySink, open_sink
from repro.sim.trace import (
    TraceEvent,
    Tracer,
    category_pad_width,
    register_category,
    registered_categories,
)


class TestRecording:
    def test_records_events_in_order(self):
        tracer = Tracer()
        tracer.record(1.0, "a", "first")
        tracer.record(2.0, "b", "second", key="value")
        assert len(tracer) == 2
        events = tracer.events()
        assert events[0].message == "first"
        assert events[1].data == {"key": "value"}

    def test_disabled_tracer_drops_everything(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "a", "ignored")
        assert len(tracer) == 0

    def test_capacity_bound_drops_oldest(self):
        sink = MemoryTelemetrySink(capacity=3)
        tracer = Tracer(sink=sink)
        for i in range(5):
            tracer.record(float(i), "c", f"event-{i}")
        assert len(tracer) == 3
        assert sink.dropped == 2
        assert sink.written == 5
        assert [e.message for e in tracer.events()] == [
            "event-2",
            "event-3",
            "event-4",
        ]
        # The bound is the sink's, whoever writes: the oldest rows go.
        for i in range(2):
            sink.write({"kind": "span", "request_id": i})
        assert [row["kind"] for row in sink.rows] == ["trace", "span", "span"]
        assert sink.dropped == 4
        assert [e.message for e in tracer.events()] == ["event-4"]

    def test_clear(self):
        tracer = Tracer(sink=MemoryTelemetrySink(capacity=1))
        tracer.record(1.0, "a", "x")
        tracer.record(2.0, "a", "y")
        tracer.clear()
        assert len(tracer) == 0
        # The drop count is the sink's history, not the tracer's to reset.
        assert tracer.sink.dropped == 1

    def test_clear_keeps_other_rows_of_a_shared_sink(self):
        # ``repro obs`` shares one memory sink between its tracer and its
        # telemetry streamer: clearing the trace must not lose the spans.
        sink = MemoryTelemetrySink()
        tracer = Tracer(sink=sink)
        tracer.record(1.0, "a", "x")
        sink.write({"kind": "span", "request_id": 7})
        tracer.record(2.0, "a", "y")
        sink.write({"kind": "sample", "series": "s", "value": 1.0})
        tracer.clear()
        assert len(tracer) == 0
        assert [row["kind"] for row in sink.rows] == ["span", "sample"]
        assert sink.rows[0]["request_id"] == 7
        tracer.record(3.0, "a", "z")
        assert [e.message for e in tracer.events()] == ["z"]


class TestQueries:
    def test_category_prefix_filter(self):
        tracer = Tracer()
        tracer.record(1.0, "vra.decision", "a")
        tracer.record(2.0, "vra", "b")
        tracer.record(3.0, "vrawhatever", "c")
        tracer.record(4.0, "dma.pass", "d")
        assert [e.message for e in tracer.events("vra")] == ["a", "b"]
        assert [e.message for e in tracer.events("dma")] == ["d"]

    def test_between(self):
        tracer = Tracer()
        for t in (1.0, 2.0, 3.0, 4.0):
            tracer.record(t, "c", str(t))
        assert [e.message for e in tracer.between(2.0, 4.0)] == ["2.0", "3.0"]

    def test_categories_sorted_distinct(self):
        tracer = Tracer()
        tracer.record(1.0, "b", "x")
        tracer.record(2.0, "a", "y")
        tracer.record(3.0, "b", "z")
        assert tracer.categories() == ["a", "b"]

    def test_dump_and_format(self):
        tracer = Tracer()
        tracer.record(12.5, "vra.decision", "chose U4")
        dump = tracer.dump()
        assert "12.5s" in dump
        assert "vra.decision" in dump
        assert "chose U4" in dump

    def test_dump_limit(self):
        tracer = Tracer()
        for i in range(5):
            tracer.record(float(i), "c", f"e{i}")
        assert tracer.dump(limit=2).splitlines() == [
            TraceEvent(3.0, "c", "e3", {}).format(),
            TraceEvent(4.0, "c", "e4", {}).format(),
        ]


class TestFormatPadding:
    def test_pad_width_covers_every_registered_category(self):
        # The historical bug: format() hard-coded an 18-char pad, which a
        # 22-char category overflowed, breaking column alignment.  The
        # width now derives from the registered set.
        assert category_pad_width() == max(
            len(category) for category in registered_categories()
        )
        assert category_pad_width() >= len("request.submitted")

    def test_known_categories_align(self):
        short = TraceEvent(1.0, "dma.pass", "m", {}).format()
        long = TraceEvent(1.0, "request.submitted", "m", {}).format()
        assert short.index(" m") == long.index(" m")

    def test_unseen_category_registers_and_grows_the_pad(self):
        category = "x" * (category_pad_width() + 4)
        line = TraceEvent(1.0, category, "msg", {}).format()
        assert category in registered_categories()
        assert category_pad_width() >= len(category)
        # The event's own line never overflows its column.
        assert f"{category} msg" in line

    def test_register_category_is_idempotent(self):
        before = category_pad_width()
        register_category("dma.pass")
        register_category("dma.pass")
        assert category_pad_width() == before
        assert registered_categories().count("dma.pass") == 1


class TestTraceRows:
    def test_trace_rows_round_trip_through_a_jsonl_sink(self):
        tracer = Tracer()
        tracer.record(1.0, "vra.decision", "chose U4", chosen_uid="U4", cost=0.5)
        tracer.record(2.0, "dma.pass", "stored", evicted=("a", "b"))
        out = io.StringIO()
        tracer.sink.copy_to(open_sink(out, "jsonl"))
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [row["kind"] for row in rows] == ["trace", "trace"]
        assert rows[0]["category"] == "vra.decision"
        assert rows[0]["data"] == {"chosen_uid": "U4", "cost": 0.5}
        # Tuples encode as lists, so the stream is valid JSON.
        assert rows[1]["data"]["evicted"] == ["a", "b"]

    def test_queries_read_only_the_trace_rows_of_a_shared_sink(self):
        sink = MemoryTelemetrySink()
        tracer = Tracer(sink=sink)
        tracer.record(1.0, "vra.decision", "a")
        sink.write({"kind": "span", "request_id": 1})
        tracer.record(2.0, "dma.pass", "b")
        assert len(tracer) == 2
        assert [e.message for e in tracer.events("vra")] == ["a"]
        assert tracer.categories() == ["dma.pass", "vra.decision"]
        out = io.StringIO()
        sink.copy_to(open_sink(out, "jsonl"), kinds=("trace",))
        assert [json.loads(line)["category"] for line in out.getvalue().splitlines()] == [
            "vra.decision",
            "dma.pass",
        ]


class TestServiceIntegration:
    def test_service_emits_lifecycle_events(self, grnet_8am):
        from repro.core.service import ServiceConfig, VoDService
        from repro.sim.engine import Simulator
        from repro.storage.video import VideoTitle

        tracer = Tracer()
        sim = Simulator(start_time=8 * 3600.0)
        service = VoDService(
            sim,
            grnet_8am,
            ServiceConfig(cluster_mb=100.0, use_reported_stats=False),
            tracer=tracer,
        )
        service.seed_title("U4", VideoTitle("m", size_mb=200.0, duration_s=1200.0))
        service.request_by_home("U2", "m")
        sim.run(until=sim.now + 3600.0)
        categories = tracer.categories()
        assert "request.submitted" in categories
        assert "placement.pass" in categories
        # The pre-placement trace family is gone for good.
        assert "dma.pass" not in categories
        assert "vra.decision" in categories
        assert "session.finished" in categories
        finished = tracer.events("session.finished")
        assert len(finished) == 1
        assert finished[0].data["status"] == "completed"

    def test_service_default_tracer_disabled(self, grnet_8am):
        from repro.core.service import ServiceConfig, VoDService
        from repro.sim.engine import Simulator
        from repro.storage.video import VideoTitle

        sim = Simulator(start_time=8 * 3600.0)
        service = VoDService(
            sim, grnet_8am, ServiceConfig(use_reported_stats=False)
        )
        service.seed_title("U4", VideoTitle("m", size_mb=200.0, duration_s=1200.0))
        service.request_by_home("U2", "m")
        sim.run(until=sim.now + 3600.0)
        assert len(service.tracer) == 0
