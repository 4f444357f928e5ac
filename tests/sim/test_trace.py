"""Unit tests for the structured tracer."""

import json

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
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.record(float(i), "c", f"event-{i}")
        assert len(tracer) == 3
        assert tracer.dropped_count == 2
        assert [e.message for e in tracer.events()] == [
            "event-2",
            "event-3",
            "event-4",
        ]

    def test_clear(self):
        tracer = Tracer()
        tracer.record(1.0, "a", "x")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped_count == 0


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
        # The historical bug: format() hard-coded an 18-char pad, which
        # "span.cluster.delivered" (22 chars) overflowed, breaking column
        # alignment.  The width now derives from the registered set.
        assert category_pad_width() == max(
            len(category) for category in registered_categories()
        )
        assert category_pad_width() >= len("span.cluster.delivered")

    def test_known_categories_align(self):
        short = TraceEvent(1.0, "dma.pass", "m", {}).format()
        long = TraceEvent(1.0, "span.cluster.delivered", "m", {}).format()
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


class TestJsonlExport:
    def test_to_jsonl_round_trips(self):
        tracer = Tracer()
        tracer.record(1.0, "vra.decision", "chose U4", chosen_uid="U4", cost=0.5)
        tracer.record(2.0, "dma.pass", "stored", evicted=("a", "b"))
        lines = tracer.to_jsonl().splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows[0]["category"] == "vra.decision"
        assert rows[0]["data.chosen_uid"] == "U4"
        # Tuples coerced to lists so the export is valid JSON.
        assert rows[1]["data.evicted"] == ["a", "b"]

    def test_export_jsonl_counts_and_filters(self):
        import io

        tracer = Tracer()
        tracer.record(1.0, "vra.decision", "a")
        tracer.record(2.0, "dma.pass", "b")
        out = io.StringIO()
        assert tracer.export_jsonl(out, category="vra") == 1
        assert json.loads(out.getvalue())["category"] == "vra.decision"


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
