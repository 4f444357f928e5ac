"""Unit tests for write-behind streaming: hooks, manifest, footer, memory."""

import hashlib
import json
from collections import Counter

import repro
from repro.cli import main
from repro.core.service import ServiceConfig, VoDService
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.obs.export import telemetry_rows
from repro.obs.sink import JsonlTelemetrySink, MemoryTelemetrySink
from repro.obs.spans import SessionSpan
from repro.obs.stream import (
    MANIFEST_SCHEMA,
    StreamingTelemetry,
    config_hash,
    run_manifest,
    topology_fingerprint,
)
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle
from repro.workload.scenarios import flash_crowd_scenario


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


def sample_multiset(rows):
    return Counter(
        (r["name"], tuple(sorted(r["labels"].items())), r["time"], r["value"])
        for r in rows
        if r["kind"] == "sample"
    )


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
        assert service.spans == []
        assert streamer.spans_flushed == 1
        footer = streamer.finish()
        span_rows = [r for r in read_jsonl(path) if r["kind"] == "span"]
        assert len(span_rows) == 1
        assert span_rows[0]["status"] == "completed"
        assert footer["rows_by_kind"]["span"] == 1

    def test_finish_restores_hooks(self, grnet_8am, tmp_path):
        service = build_service(grnet_8am)
        streamer = StreamingTelemetry(service, JsonlTelemetrySink(tmp_path / "r.jsonl"))
        streamer.start()
        assert service.on_span_finished is not None
        streamer.finish()
        assert service.on_span_finished is None
        for _, series in service.telemetry.series_for("link.utilization"):
            assert series.on_drop is None

    def test_ring_spill_loses_no_samples(self, grnet_8am, tmp_path):
        # Reference: ample rings, classic buffered export.
        buffered = build_service(grnet_8am, telemetry_capacity=4096)
        drive(buffered)
        expected = sample_multiset(
            telemetry_rows(buffered.obs, buffered.telemetry, buffered.spans)
        )

        # Same deterministic run, tiny rings: overflow spills to the sink.
        service = build_service(grnet_8am, telemetry_capacity=8)
        path = tmp_path / "run.jsonl"
        streamer = StreamingTelemetry(service, JsonlTelemetrySink(path))
        streamer.start()
        drive(service)
        streamer.finish()
        assert streamer.samples_spilled > 0
        assert sample_multiset(read_jsonl(path)) == expected

    def test_a_closed_span_is_removed_by_identity_not_by_value(self, grnet_8am, tmp_path):
        service = build_service(grnet_8am)
        path = tmp_path / "run.jsonl"
        streamer = StreamingTelemetry(service, JsonlTelemetrySink(path))
        streamer.start()
        now = service.sim.now
        ids = dict(request_id=7, client_id="c", title_id="m", home_uid="U2")
        first = SessionSpan(started_at=now, **ids)
        second = SessionSpan(started_at=now, **ids)
        service.spans.extend([first, second])
        # Finished directly, not through the service: still on the list.
        first.finish(now, "failed")
        service._close_span(second, "failed")
        assert first.to_dict() == second.to_dict()  # equal field for field
        # The span that closed is the one that left; its twin stays.
        assert streamer.spans_flushed == 1
        assert len(service.spans) == 1 and service.spans[0] is first
        streamer.finish()
        span_rows = [r for r in read_jsonl(path) if r["kind"] == "span"]
        assert [r["request_id"] for r in span_rows] == [7, 7]


class TestMemoryBound:
    """Resident telemetry is O(active sessions + ring capacity), not
    O(total sessions): a 10x larger flash crowd adds fewer resident rows
    than it adds sessions (with spans kept in RAM it adds exactly one per
    session).  Small rings keep the spans' share of the peak visible."""

    @staticmethod
    def streamed_crowd(viewer_count, path):
        scenario = flash_crowd_scenario(
            "U2",
            VideoTitle("special", size_mb=300.0, duration_s=1_800.0),
            viewer_count=viewer_count,
            start_s=600.0,
            ramp_s=7_200.0,
        )
        box = {}

        def hook(service):
            box["streamer"] = StreamingTelemetry(service, JsonlTelemetrySink(path))
            box["streamer"].start()

        result = run_service_experiment(
            ServiceExperiment(
                name=f"stream-{viewer_count}",
                scenario=scenario,
                config=ServiceConfig(
                    cluster_mb=100.0,
                    disk_count=2,
                    disk_capacity_mb=1_000.0,
                    max_streams=256,
                    use_reported_stats=False,
                    observability=True,
                    telemetry_capacity=16,
                ),
                seed_origin_uids=["U4"],
                run_until=12 * 3600.0,
                service_hook=hook,
            )
        )
        return result, box["streamer"].finish()

    def test_peak_resident_rows_flat_at_10x_sessions(self, tmp_path):
        small, small_footer = self.streamed_crowd(4, tmp_path / "small.jsonl")
        large, large_footer = self.streamed_crowd(40, tmp_path / "large.jsonl")
        sessions = large.metrics.session_count
        added = sessions - small.metrics.session_count
        assert added > 0
        assert large.metrics.completed_count == sessions
        # Every finished span left RAM through the sink; none piled up.
        assert large.service.spans == []
        assert large_footer["spans_flushed"] == sessions
        assert large_footer["rows_by_kind"]["span"] == sessions
        assert large_footer["rows_written"] > 1_000
        growth = large_footer["peak_resident_rows"] - small_footer["peak_resident_rows"]
        assert growth < added


class TestMemory:
    def test_streamed_rows_are_the_rows_of_a_run_without_a_streamer(self):
        reference = build_service(grnet_8am_topology())
        drive(reference)
        expected = Counter(
            json.dumps(row, sort_keys=True)
            for row in telemetry_rows(reference.obs, reference.telemetry, reference.spans)
        )
        service = build_service(grnet_8am_topology())
        sink = MemoryTelemetrySink()
        streamer = StreamingTelemetry(service, sink)
        streamer.start()
        drive(service)
        streamer.finish()
        assert service.spans == [] and reference.spans  # one took it, one kept it
        assert Counter(json.dumps(row, sort_keys=True) for row in sink.rows) == expected

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
#: --telemetry-out`` streamed before the decision-latency histogram and
#: the span events' ``latency_ms`` left the stream (both dropped from the
#: reference before hashing): every other row is unchanged.
PINNED_CHAOS_ROWS = (28_891, "4ef57f5c79c53f08575b520f32259a213853f727a6155adb928fe1362d5e25bc")


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
        b = build_service(grnet_8am, telemetry_capacity=8)
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
        assert footer["sim_time_end"] == service.sim.now
        assert footer["events_fired"] == service.sim.events_fired
        assert footer["wall_time_s"] >= 0.0
        assert footer["peak_rss_kb"] > 0
        assert footer["peak_resident_rows"] >= 1
        tail = read_jsonl(path)[-1]
        assert tail["kind"] == "footer"
        assert tail["rows_written"] == footer["rows_written"]

    def test_finish_is_idempotent(self, grnet_8am, tmp_path):
        service = build_service(grnet_8am)
        streamer = StreamingTelemetry(service, JsonlTelemetrySink(tmp_path / "r.jsonl"))
        streamer.start()
        first = streamer.finish()
        assert streamer.finish() is first
        assert streamer.sink.closed
