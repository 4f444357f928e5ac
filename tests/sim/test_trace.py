"""Unit tests for the structured tracer."""

import io
import json

from repro.obs.sink import MemoryTelemetrySink, open_sink
from repro.sim.trace import Tracer
from tests.trace_rows import trace_rows


class TestRecording:
    def test_records_events_in_order(self):
        tracer = Tracer()
        tracer.record(1.0, "a", "first")
        tracer.record(2.0, "b", "second", key="value")
        rows = trace_rows(tracer)
        assert len(rows) == 2
        assert rows[0]["message"] == "first"
        assert rows[1]["data"] == {"key": "value"}

    def test_disabled_tracer_drops_everything(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "a", "ignored")
        assert trace_rows(tracer) == []
        assert tracer.sink.written == 0


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
        assert [row["message"] for row in trace_rows(tracer)] == ["a", "b"]
        assert [row["message"] for row in trace_rows(tracer, "vra")] == ["a"]
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
        categories = {row["category"] for row in trace_rows(tracer)}
        assert "request.submitted" in categories
        assert "placement.pass" in categories
        # The pre-placement trace family is gone for good.
        assert "dma.pass" not in categories
        assert "vra.decision" in categories
        assert "session.finished" in categories
        finished = trace_rows(tracer, "session.finished")
        assert len(finished) == 1
        assert finished[0]["data"]["status"] == "completed"

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
        assert trace_rows(service.tracer) == []
