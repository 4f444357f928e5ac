"""Per-request session spans: one row per request, its cluster columns
read from the session record."""

import json

from repro.client.requests import VideoRequest
from repro.core.service import ServiceConfig, VoDService
from repro.core.session import ClusterRecord, SessionRecord
from repro.faults import FaultInjector, FaultSchedule
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.obs.sink import MemoryTelemetrySink
from repro.obs.spans import CLUSTER_COLUMNS, SessionSpan
from repro.obs.stream import StreamingTelemetry
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle

#: The ClusterRecord fields a span row's columns carry, in column order.
RECORD_FIELDS = CLUSTER_COLUMNS[:8]


def make_span():
    request = VideoRequest(
        request_id=7, client_id="c1", home_uid="U2", title_id="t1", submitted_at=100.0
    )
    return SessionSpan(SessionRecord(request=request))


def cluster(index, server, start, end, switched=False):
    return ClusterRecord(
        index=index, server_uid=server, path_nodes=("U2", server), rate_mbps=8.0,
        start=start, end=end, size_mb=(end - start), switched=switched,
        qos_violated=False,
    )


def booked(columns):
    """The column entries whose segment booked a cluster, as dicts."""
    entries = [dict(zip(columns, values)) for values in zip(*columns.values())]
    return [entry for entry in entries if entry["index"] is not None]


def assert_columns_are_the_record(row, record):
    """Every ClusterRecord appears once, in order, field for field."""
    entries = booked(row["clusters"])
    assert len(entries) == len(record.clusters)
    for entry, clusters in zip(entries, record.clusters):
        assert {name: entry[name] for name in RECORD_FIELDS} == {
            name: getattr(clusters, name) for name in RECORD_FIELDS
        }


class TestLifecycle:
    def test_open_until_finished(self):
        span = make_span()
        assert span.finished_at is None
        span.finish(160.0, "completed")
        assert span.finished_at == 160.0
        assert span.status == "completed"
        assert span.events[-1].kind == "finished"

    def test_columns_answer_the_counts(self):
        span = make_span()
        span.decisions.append((0, 1.5, False, ("db", 1, 2)))
        span.record.clusters.append(cluster(0, "U4", 100.0, 130.0))
        span.decisions.append((1, 0.0, True, ("db", 1, 2)))
        span.record.clusters.append(cluster(1, "U5", 130.0, 150.0, switched=True))
        columns = span.to_dict()["clusters"]
        assert len(columns["cost"]) == 2  # decisions
        assert columns["switched"].count(True) == 1  # switches
        assert list(dict.fromkeys(columns["server_uid"])) == ["U4", "U5"]  # servers used
        assert columns["cost"] == [1.5, 0.0]
        assert columns["served_locally"] == [False, True]

    def test_a_decision_without_a_cluster_keeps_its_own_fields(self):
        # The first segment was preempted before it delivered anything:
        # the second decision found no cluster booked since the first.
        span = make_span()
        span.decisions.append((0, 2.0, False, ("db", 1, 2)))
        span.decisions.append((0, 3.0, False, ("db", 1, 3)))
        span.record.clusters.append(cluster(0, "U5", 100.0, 130.0))
        columns = span.to_dict()["clusters"]
        assert columns["index"] == [None, 0]
        assert columns["server_uid"] == [None, "U5"]
        assert columns["cost"] == [2.0, 3.0]
        assert columns["epoch"] == [["db", 1, 2], ["db", 1, 3]]


class TestSink:
    def test_no_sink_is_fine(self):
        # A span forwards nothing: it reaches the row stream once, as a
        # span row, when it closes.
        span = make_span()
        span.add(100.0, "submitted")
        assert len(span.events) == 1


class TestExportShape:
    def test_to_dict_is_json_ready(self):
        span = make_span()
        span.decisions.append((0, 0.5, False, ("db", 1, 2)))
        span.finish(160.0, "completed")
        payload = span.to_dict()
        # The epoch tuple leaves as a list, so json round-trips losslessly.
        assert payload["clusters"]["epoch"] == [["db", 1, 2]]
        assert json.loads(json.dumps(payload)) == payload
        assert payload["request_id"] == 7
        assert payload["started_at"] == 100.0
        assert payload["status"] == "completed"
        assert set(payload["clusters"]) == set(CLUSTER_COLUMNS)

    def test_a_span_with_no_decision_has_empty_columns(self):
        payload = make_span().to_dict()
        assert payload["clusters"] == {name: [] for name in CLUSTER_COLUMNS}


def failover_service(**config):
    sim = Simulator(start_time=8 * 3600.0)
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    service = VoDService(sim, topology, ServiceConfig(
        cluster_mb=50.0, use_reported_stats=False, session_failover=True,
        observability=True, **config,
    ))
    for uid in ("U4", "U5"):
        service.seed_title(uid, VideoTitle("m", size_mb=200.0, duration_s=600.0))
    return service


class TestImmediatePreemption:
    def test_a_segment_preempted_at_once_keeps_its_decision(self):
        """The first segment's server crashes in the instant the segment
        starts: it delivers nothing, so no ClusterRecord, yet the row
        still carries that decision, with no cluster fields."""
        service = failover_service()
        sim = service.sim
        chosen = []

        def crash_the_first_source(decide):
            def first(cluster):
                decision = decide(cluster)
                if not chosen:
                    chosen.append(decision.chosen_uid)
                    crash = lambda: setattr(service.servers[chosen[0]], "online", False)  # noqa: E731
                    sim.schedule(0.0, crash)
                return decision
            return first

        service.decide_wrapper = crash_the_first_source
        service.start()
        _, session, _ = service.request_by_home("U2", "m")
        sim.run(until=sim.now + 3 * 3600.0)

        record = session.record
        assert record.completed and record.failover_count == 1
        assert chosen[0] not in record.servers_used
        [row] = [r for r in service.telemetry.sink.rows if r["kind"] == "span"]
        columns = row["clusters"]
        assert len(columns["cost"]) == len(record.clusters) + 1
        first = {name: column[0] for name, column in columns.items()}
        assert {name: first[name] for name in RECORD_FIELDS} == dict.fromkeys(RECORD_FIELDS)
        assert first["served_locally"] is False and first["cost"] > 0.0
        assert len(first["epoch"]) == 3
        assert_columns_are_the_record(row, record)
        [failover] = [e for e in row["events"] if e["kind"] == "failover"]
        assert failover["stall_s"] == 0.0


class TestFailoverStorm:
    def test_every_row_carries_its_session_records_clusters(self):
        """A small seeded storm under failover, with a shed request and
        spans still open when ``finish()`` writes them."""
        service = failover_service(
            admission_queue_capacity=1, admission_rate_per_s=0.05, admission_tick_s=10.0,
        )
        sim = service.sim
        topology = service.topology
        schedule = FaultSchedule.seeded(
            seed=11, duration_s=2 * 3600.0,
            link_names=[link.name for link in topology.links()],
            server_uids=["U4", "U5"],
            server_crash_rate_per_h=4.0, link_flap_rate_per_h=4.0,
            mean_fault_duration_s=300.0,
        )
        FaultInjector(service, schedule).start()
        sink = MemoryTelemetrySink()
        streamer = StreamingTelemetry(service, sink)
        streamer.start()
        service.start()
        homes = ["U1", "U2", "U3", "U6"]
        for i in range(24):
            sim.schedule(
                300.0 * (i // 3), service.request_by_home, homes[i % 4], "m", f"v{i}"
            )
        sim.run(until=sim.now + 2400.0)  # the last requests are streaming
        streamer.finish()

        rows = [row for row in sink.rows if row["kind"] == "span"]
        records = {r.request.request_id: r for r in service.sessions}
        assert sorted(row["request_id"] for row in rows) == sorted(records)
        statuses = set()
        for row in rows:
            record = records[row["request_id"]]
            assert_columns_are_the_record(row, record)
            if row["finished_at"] is None:
                statuses.add("open")
            elif record.request.failure_reason and record.request.failure_reason.startswith(
                "admission-shed"
            ):
                statuses.add("shed")
                assert row["clusters"] == {name: [] for name in CLUSTER_COLUMNS}
            else:
                statuses.add(row["status"])
        assert {"completed", "shed", "open"} <= statuses
        assert any(e["kind"] == "failover" for row in rows for e in row["events"])
        assert not any(
            e["kind"] in ("vra.decision", "cluster.delivered", "switch")
            for row in rows for e in row["events"]
        )
