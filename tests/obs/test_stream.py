"""Unit tests for streaming: rows as they happen, manifest, footer."""

import gc
import hashlib
import json
import weakref

import repro
from repro.cli import main
from repro.core.service import ServiceConfig, VoDService
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.obs.export import telemetry_rows
from repro.obs.sink import JsonlTelemetrySink, MemoryTelemetrySink
from repro.obs.stream import (
    MANIFEST_SCHEMA,
    StreamingTelemetry,
    config_hash,
    run_manifest,
    topology_fingerprint,
)
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def grnet_8am_topology():
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    return topology


def build_service(topology, **overrides):
    sim = Simulator(start_time=8 * 3600.0)
    config = ServiceConfig(
        cluster_mb=100.0,
        use_reported_stats=False,
        observability=True,
        telemetry_period_s=30.0,
        **overrides,
    )
    service = VoDService(sim, topology, config)
    service.seed_title("U4", VideoTitle("m", size_mb=200.0, duration_s=1200.0))
    return service


def drive(service):
    service.start()
    service.request_by_home("U2", "m")
    service.sim.run(until=service.sim.now + 3600.0)


def read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class TestStreaming:
    def test_spans_flush_on_close_and_leave_memory(self, grnet_8am, tmp_path):
        service = build_service(grnet_8am)
        path = tmp_path / "run.jsonl"
        streamer = StreamingTelemetry(
            service, JsonlTelemetrySink(path), seed=7, label="unit"
        )
        streamer.start()
        drive(service)
        # The session closed mid-run: its span went to the sink, not RAM.
        assert service.open_spans == {}
        assert streamer.sink.by_kind["span"] == 1
        footer = streamer.finish()
        span_rows = [r for r in read_jsonl(path) if r["kind"] == "span"]
        assert len(span_rows) == 1
        assert span_rows[0]["status"] == "completed"
        assert footer["rows_by_kind"]["span"] == 1
        assert footer["spans_flushed"] == 1

    def test_start_points_the_runs_sink_at_the_streamer(self, grnet_8am, tmp_path):
        service = build_service(grnet_8am)
        held = service.telemetry.sink
        assert isinstance(held, MemoryTelemetrySink)
        service.start()  # the immediate sample lands in the default sink
        assert held.written > 0
        path = tmp_path / "r.jsonl"
        streamer = StreamingTelemetry(service, JsonlTelemetrySink(path))
        streamer.start()
        assert service.telemetry.sink is streamer.sink
        streamer.finish()
        rows = read_jsonl(path)
        # The rows taken before start() follow the manifest, in order.
        assert rows[0]["kind"] == "manifest"
        assert rows[1 : 1 + held.written] == list(held.rows)

    def test_a_run_that_goes_on_after_finish_writes_to_memory(self, grnet_8am, tmp_path):
        service = build_service(grnet_8am)
        streamer = StreamingTelemetry(service, JsonlTelemetrySink(tmp_path / "r.jsonl"))
        streamer.start()
        service.start()
        service.request_by_home("U2", "m")
        streamer.finish()
        assert streamer.sink.closed
        service.sim.run(until=service.sim.now + 3600.0)  # the span closes here
        kinds = {row["kind"] for row in service.telemetry.sink.rows}
        assert kinds == {"sample", "span"}

    def test_sink_holds_every_sample_up_to_now(self):
        checkpoints = [8 * 3600.0 + t for t in (0.0, 45.0, 600.0, 1_800.0, 3_600.0)]
        reference = build_service(grnet_8am_topology())
        drive(reference)
        expected = [row for row in reference.telemetry.sink.rows if row["kind"] == "sample"]

        service = build_service(grnet_8am_topology())
        sink = MemoryTelemetrySink()
        StreamingTelemetry(service, sink).start()
        service.start()
        service.request_by_home("U2", "m")
        for until in checkpoints:
            service.sim.run(until=until)
            # Nothing waits for finish(): every sample taken so far is in.
            assert [row for row in sink.rows if row["kind"] == "sample"] == [
                row for row in expected if row["time"] <= until
            ]

    def test_a_closed_span_is_held_by_nothing_in_the_service(self, grnet_8am):
        service = build_service(grnet_8am)
        service.start()
        request, _, _ = service.request_by_home("U2", "m")
        span = weakref.ref(service.open_spans[request.request_id])
        service.sim.run(until=service.sim.now + 3600.0)
        assert request.status.value == "completed"
        gc.collect()
        assert span() is None
        assert service.open_spans == {}
        [row] = [r for r in service.telemetry.sink.rows if r["kind"] == "span"]
        assert row["request_id"] == request.request_id


class TestMemory:
    def test_streamed_rows_are_the_rows_of_a_run_without_a_streamer(self):
        reference = build_service(grnet_8am_topology())
        drive(reference)
        expected = [
            *reference.telemetry.sink.rows,
            *telemetry_rows(reference.obs, reference.open_spans.values()),
        ]
        service = build_service(grnet_8am_topology())
        sink = MemoryTelemetrySink()
        streamer = StreamingTelemetry(service, sink)
        streamer.start()
        drive(service)
        streamer.finish()
        # Same rows, in the same order: each row leaves when it happens.
        assert [json.dumps(row, sort_keys=True) for row in sink.rows] == [
            json.dumps(row, sort_keys=True) for row in expected
        ]
        assert {row["kind"] for row in expected} == {"sample", "span", "counter", "histogram"}

    def test_a_memory_copy_is_the_artifact_a_file_sink_writes(self, tmp_path):
        paths = []
        for sink in (None, MemoryTelemetrySink()):
            path = tmp_path / f"run{len(paths)}.jsonl"
            service = build_service(grnet_8am_topology())
            streamer = StreamingTelemetry(
                service, sink or JsonlTelemetrySink(path), seed=3, label="unit"
            )
            streamer.start()
            drive(service)
            streamer.finish()
            if sink is not None:
                sink.copy_to(JsonlTelemetrySink(path))
            paths.append(path)
        direct, copied = (path.read_text().splitlines() for path in paths)
        # Byte-identical up to the footer, the one row with wall-clock values.
        assert direct[:-1] == copied[:-1]
        assert len(direct) > 100
        wall_clock = ("wall_time_s", "peak_rss_kb")
        footers = [json.loads(lines[-1]) for lines in (direct, copied)]
        for footer in footers:
            for key in wall_clock:
                footer.pop(key)
        assert footers[0] == footers[1]


#: sha256 of the sorted data rows (manifest and footer dropped) that
#: ``chaos --seed 42 --duration-hours 1 --requests-per-node 5
#: --telemetry-out`` streams.  Rows of instruments that left the service
#: were dropped from the earlier reference before hashing (the
#: decision-latency histogram, the span events' ``latency_ms``, the 245
#: ``resilience.degraded_decisions`` and the 245 ``resilience.requeues``
#: sample and counter rows): every other row is unchanged.  Since the
#: span became a request's one trail, its ``submitted`` event also holds
#: ``dma_evicted`` and ``dma_resident_fraction`` and its ``finished``
#: event the ``reason`` or ``startup_s`` and ``stall_s``; without those
#: five keys the rows hash to the earlier reference (``b0689674…``).
#: Since the span row is written from the session record, its
#: ``vra.decision``, ``switch`` and ``cluster.delivered`` events are its
#: ``clusters`` columns: every other row is unchanged, and rebuilding the
#: 426 decision, 1 switch and 408 delivery events from the columns gives
#: back the earlier rows (``d9d69841…``) but for the time and chosen
#: server of the 18 decisions whose segment was still in flight.
PINNED_CHAOS_ROWS = (28_401, "a3a1412bafccc37d0ccebe7fbafaf4521d136d40b9fb8b257a28946b915d6afa")


class TestPinnedRows:
    def test_chaos_stream_reproduces_the_pinned_row_multiset(self, tmp_path, capsys):
        path = tmp_path / "chaos.jsonl"
        argv = ["chaos", "--seed", "42", "--duration-hours", "1",
                "--requests-per-node", "5", "--telemetry-out", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        rows = sorted(
            json.dumps(row, sort_keys=True)
            for row in read_jsonl(path)
            if row["kind"] not in ("manifest", "footer")
        )
        digest = hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()
        assert (len(rows), digest) == PINNED_CHAOS_ROWS
        assert "latency" not in path.read_text()


class TestManifest:
    def test_header_fields(self, grnet_8am, tmp_path):
        service = build_service(grnet_8am)
        path = tmp_path / "run.jsonl"
        streamer = StreamingTelemetry(
            service, JsonlTelemetrySink(path), seed=42, label="manifest-test"
        )
        streamer.start()
        streamer.finish()
        head = read_jsonl(path)[0]
        assert head["kind"] == "manifest"
        assert head["schema"] == MANIFEST_SCHEMA
        assert head["code_version"] == repro.__version__
        assert head["seed"] == 42
        assert head["label"] == "manifest-test"
        assert head["config_hash"] == config_hash(service.config)
        assert head["topology"]["node_count"] == 6
        assert head["topology"]["link_count"] == 7
        assert len(head["topology"]["hash"]) == 64
        assert "knobs" not in head  # the config row already carries them
        assert head["config"]["telemetry_period_s"] == 30.0
        assert head["config"]["compiled_routing"] is True
        assert head["config"]["admission_queue_capacity"] == 0

    def test_config_hash_tracks_config_changes(self, grnet_8am):
        a = build_service(grnet_8am)
        b = build_service(grnet_8am, max_streams=8)
        assert config_hash(a.config) != config_hash(b.config)
        assert config_hash(a.config) == config_hash(build_service(grnet_8am).config)

    def test_topology_fingerprint_is_stable(self, grnet_8am, grnet):
        assert topology_fingerprint(grnet_8am) == topology_fingerprint(grnet_8am)
        assert (
            topology_fingerprint(grnet_8am)["hash"]
            == topology_fingerprint(grnet)["hash"]
        )  # background traffic is not part of the wiring fingerprint

    def test_manifest_is_json_serialisable(self, grnet_8am):
        service = build_service(grnet_8am)
        payload = run_manifest(service, seed=1, label="x")
        assert json.loads(json.dumps(payload))["schema"] == MANIFEST_SCHEMA


class TestFooter:
    def test_totals_and_environment(self, grnet_8am, tmp_path):
        service = build_service(grnet_8am)
        path = tmp_path / "run.jsonl"
        streamer = StreamingTelemetry(service, JsonlTelemetrySink(path))
        streamer.start()
        drive(service)
        footer = streamer.finish()
        assert footer["rows_written"] == sum(footer["rows_by_kind"].values())
        assert footer["rows_written"] == streamer.sink.written
        assert footer["spans_flushed"] == 1
        assert "samples_spilled" not in footer and "peak_resident_rows" not in footer
        assert footer["sim_time_end"] == service.sim.now
        assert footer["events_fired"] == service.sim.events_fired
        assert footer["wall_time_s"] >= 0.0
        assert footer["peak_rss_kb"] > 0
        tail = read_jsonl(path)[-1]
        assert tail["kind"] == "footer"
        assert tail["rows_written"] == footer["rows_written"]

    def test_start_is_idempotent_and_finish_starts_an_unstarted_stream(
        self, grnet_8am, tmp_path
    ):
        for starts in (0, 2):
            service = build_service(grnet_8am)
            path = tmp_path / f"started-{starts}.jsonl"
            streamer = StreamingTelemetry(service, JsonlTelemetrySink(path))
            for _ in range(starts):
                streamer.start()
            streamer.finish()
            kinds = [row["kind"] for row in read_jsonl(path)]
            assert kinds[0] == "manifest" and kinds.count("manifest") == 1
            assert kinds[-1] == "footer"

    def test_peak_rss_reads_kib_on_linux_bytes_on_macos_and_0_without_resource(
        self, monkeypatch
    ):
        from repro.obs import stream

        class FakeResource:
            RUSAGE_SELF = 0

            @staticmethod
            def getrusage(_):
                return type("Usage", (), {"ru_maxrss": 2048})()

        monkeypatch.setattr(stream, "resource", FakeResource)
        monkeypatch.setattr(stream.sys, "platform", "linux")
        assert stream.peak_rss_kb() == 2048.0
        monkeypatch.setattr(stream.sys, "platform", "darwin")
        assert stream.peak_rss_kb() == 2.0
        monkeypatch.setattr(stream, "resource", None)
        assert stream.peak_rss_kb() == 0.0

    def test_finish_is_idempotent(self, grnet_8am, tmp_path):
        service = build_service(grnet_8am)
        streamer = StreamingTelemetry(service, JsonlTelemetrySink(tmp_path / "r.jsonl"))
        streamer.start()
        first = streamer.finish()
        assert streamer.finish() is first
        assert streamer.sink.closed
