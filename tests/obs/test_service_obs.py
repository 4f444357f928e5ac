"""Integration tests: the service's unified telemetry layer end to end."""

import copy

import pytest

from repro.core.service import ServiceConfig, VoDService
from repro.experiments.placement import session_fingerprint
from repro.obs.export import sample_series
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def rows_of(service, kind, name=None):
    """The rows of one kind (and name) in the service's telemetry sink."""
    return [
        row for row in service.telemetry.sink.rows
        if row["kind"] == kind and (name is None or row["name"] == name)
    ]


def run_service(topology, observability=True, period=30.0, **config):
    sim = Simulator(start_time=8 * 3600.0)
    service = VoDService(
        sim,
        topology,
        ServiceConfig(
            cluster_mb=100.0,
            use_reported_stats=False,
            observability=observability,
            telemetry_period_s=period,
            **config,
        ),
    )
    service.seed_title("U4", VideoTitle("m", size_mb=200.0, duration_s=1200.0))
    service.start()
    service.request_by_home("U2", "m")
    sim.run(until=sim.now + 3600.0)
    return service


class TestEnabled:
    def test_instrument_families_cover_every_subsystem(self, grnet_8am):
        service = run_service(grnet_8am)
        families = set(service.obs.families())
        assert {
            "link.utilization",
            "link.reserved_mbps",
            "server.cache_fraction",
            "server.stream_load",
            "dma.points_table_size",
            "routing.cache_hit_rate",
            "vra.decisions",
            "service.requests_submitted",
            "session.clusters_delivered",
            "sim.events_fired",
            "snmp.rounds",
        } <= families

    def test_counters_and_histograms_reflect_the_run(self, grnet_8am):
        service = run_service(grnet_8am)
        obs = service.obs
        assert obs.counter("service.requests_submitted").value == 1.0
        assert obs.counter("service.sessions_completed").value == 1.0
        assert obs.counter("vra.decisions").value >= 2.0
        assert obs.counter("session.clusters_delivered").value == 2.0
        assert obs.histogram("session.startup_s").count == 1

    def test_sampler_records_link_utilisation_timeline(self, grnet_8am):
        service = run_service(grnet_8am)
        pairs = sample_series(service.telemetry.sink.rows, "link.utilization")
        assert len(pairs) == service.topology.link_count
        assert all(len(series) > 1 for _, series in pairs)
        # The transfer reserved bandwidth somewhere: some link peaked > 0.
        assert any(series.maximum() > 0.0 for _, series in pairs)

    def test_span_follows_the_request_end_to_end(self, grnet_8am):
        service = run_service(grnet_8am)
        # The span closed, so it left the service as its one span row.
        assert service.open_spans == {}
        [span] = rows_of(service, "span")
        assert span["finished_at"] is not None
        assert span["status"] == "completed"
        assert span["home_uid"] == "U2"
        columns = span["clusters"]
        assert len(columns["cost"]) == 2  # one decision per 100 MB cluster
        assert columns["server_uid"] == ["U4", "U4"]
        assert columns["index"] == [0, 1]
        assert all(isinstance(epoch, list) for epoch in columns["epoch"])
        # What the session record books is not booked again as events.
        assert [e["kind"] for e in span["events"]] == ["submitted", "finished"]
        # No wall-clock values in the span, and it is the request's one
        # trail: the row stream holds no other per-request rows.
        assert "latency_ms" not in columns
        assert {row["kind"] for row in service.telemetry.sink.rows} == {"sample", "span"}

    def test_per_server_labeled_counters(self, grnet_8am):
        service = run_service(grnet_8am)
        serves = {
            c.label_dict()["server"]: c.value
            for c in service.obs.counters()
            if c.name == "server.serves"
        }
        assert serves["U4"] == 2.0  # sourced both clusters
        assert serves["U2"] == 0.0


class TestDisabled:
    def test_disabled_service_registers_nothing(self, grnet_8am):
        service = run_service(grnet_8am, observability=False)
        assert len(service.obs) == 0
        assert service.open_spans == {}
        assert service.telemetry.sink is None
        # The run itself is unaffected.
        assert service.sessions[0].completed

    def test_telemetry_never_reaches_the_simulation(self, grnet_8am):
        on = run_service(copy.deepcopy(grnet_8am))
        off = run_service(grnet_8am, observability=False)
        assert len(on.obs) > 0 and len(off.obs) == 0
        assert session_fingerprint(on.sessions) == session_fingerprint(off.sessions)

    def test_explicit_registry_overrides_config(self, grnet_8am):
        from repro.obs.registry import MetricsRegistry

        sim = Simulator(start_time=8 * 3600.0)
        registry = MetricsRegistry(enabled=True)
        service = VoDService(
            sim,
            grnet_8am,
            ServiceConfig(use_reported_stats=False),  # observability off
            registry=registry,
        )
        assert service.obs is registry
        assert len(registry) > 0


class TestRuntimeExpansion:
    def test_added_server_gets_instruments_and_gauges(self, grnet_8am):
        from repro.network.link import Link
        from repro.network.node import Node

        service = run_service(grnet_8am)
        node = Node("U7", name="Larissa")
        link = Link("U7", "U1", capacity_mbps=34.0, name="Larissa-Athens")
        service.add_server(node, [link])
        assert any(
            c.label_dict().get("server") == "U7"
            for c in service.obs.counters()
            if c.name == "server.serves"
        )
        service.telemetry.sample()
        assert any(
            row["labels"] == {"link": "Larissa-Athens"}
            for row in rows_of(service, "sample", "link.utilization")
        )


class TestBlockedRequests:
    def test_blocked_request_counted_and_span_finished(self, grnet_8am):
        sim = Simulator(start_time=8 * 3600.0)
        service = VoDService(
            sim,
            grnet_8am,
            ServiceConfig(
                cluster_mb=100.0,
                use_reported_stats=False,
                observability=True,
                strict_qos_admission=True,
            ),
        )
        # A title whose bitrate no GRNET link can sustain.
        service.seed_title(
            "U4", VideoTitle("huge", size_mb=2000.0, duration_s=60.0)
        )
        service.start()
        request, _, _ = service.request_by_home("U2", "huge")
        assert request.finished
        assert request.status.value == "failed"
        assert service.obs.counter("service.requests_blocked").value == 1.0
        assert service.open_spans == {}
        [span] = rows_of(service, "span")
        assert span["status"] == "failed"


class TestEveryEnding:
    """One seeded run that ends sessions every way the service can.

    A strict-QoS rejection blocks at once (at submit, or at admit time
    for a delayed request).  With ``retry_attempts=2`` the mid-stream
    failure first waits out its retry budget at the cluster boundary;
    the other endings are the same: completed, shed, blocked.
    """

    @staticmethod
    def build(topology, retry_attempts, observability=True):
        sim = Simulator(start_time=8 * 3600.0)
        service = VoDService(
            sim,
            topology,
            ServiceConfig(
                cluster_mb=100.0,
                use_reported_stats=False,
                observability=observability,
                telemetry_period_s=30.0,
                strict_qos_admission=True,
                retry_attempts=retry_attempts,
                # One admission per 60 s tick, one waiter: the second
                # request of a tick is delayed, the third is shed.
                admission_queue_capacity=1,
                admission_rate_per_s=0.01,
                admission_tick_s=60.0,
            ),
        )
        service.seed_title("U4", VideoTitle("m", size_mb=200.0, duration_s=1200.0))
        service.seed_title("U5", VideoTitle("solo", size_mb=200.0, duration_s=1200.0))
        # A bitrate no GRNET link can sustain.
        service.seed_title("U4", VideoTitle("huge", size_mb=2000.0, duration_s=60.0))
        return service

    @staticmethod
    def drive(service, check=lambda: None):
        """Submit the six requests; ``check`` runs after every event."""
        sim = service.sim

        def run_for(seconds):
            end = sim.now + seconds
            while sim.peek() is not None and sim.peek() <= end:
                sim.step()
                check()
            sim.run(until=end)

        def submit(home, title, client):
            request, _, _ = service.request_by_home(home, title, client)
            check()
            return request

        service.start()
        check()
        requests = {
            "completed": submit("U2", "m", "a"),
            "midstream": submit("U6", "solo", "b"),  # delayed one tick
            "shed": submit("U1", "m", "c"),
        }
        run_for(200.0)
        assert requests["midstream"].status.value == "streaming"
        service.servers["U5"].online = False  # the last holder of "solo"
        check()
        run_for(100.0)
        requests["blocked"] = submit("U2", "huge", "d")
        run_for(200.0)
        submit("U6", "m", "e")  # takes the tick's one immediate slot
        requests["delayed_blocked"] = submit("U2", "huge", "f")
        run_for(3600.0)
        return requests

    @staticmethod
    def assert_endings(service, requests, retry_attempts):
        assert requests["completed"].status.value == "completed"
        assert all(r.finished for r in requests.values())
        assert "polled out" in requests["midstream"].failure_reason
        assert requests["shed"].failure_reason.startswith("admission-shed")
        for name in ("blocked", "delayed_blocked"):
            assert requests[name].failure_reason.startswith("qos-blocked")
        waits = {r.request.client_id: r.admission_wait_s for r in service.sessions}
        assert waits["b"] > 0.0 and waits["f"] > 0.0 and waits["d"] == 0.0
        if service.obs.enabled:
            counter = service.obs.counter
            assert counter("service.sessions_completed").value == 2.0
            assert counter("service.sessions_failed").value == 1.0
            assert counter("service.requests_blocked").value == 2.0
            assert counter("admission.shed").value == 1.0
            # The mid-stream failure spent the whole budget first.
            assert counter("resilience.retries").value == retry_attempts

    @pytest.mark.parametrize("retry_attempts", [0, 2])
    def test_sessions_active_is_counted_and_equals_the_scan(
        self, grnet_8am, retry_attempts
    ):
        service = self.build(grnet_8am, retry_attempts)
        gauge = service.obs.gauge("service.sessions_active")
        peak = [0.0]

        def check():
            scanned = sum(1 for r in service.sessions if not r.request.finished)
            assert gauge.value == scanned
            peak[0] = max(peak[0], gauge.value)

        requests = self.drive(service, check)
        self.assert_endings(service, requests, retry_attempts)
        assert peak[0] >= 2.0 and gauge.value == 0.0

        class Unscannable(list):
            def __iter__(self):
                raise AssertionError("telemetry iterated service.sessions")

        service.sessions = Unscannable(service.sessions)
        service.telemetry.sample()
        assert rows_of(service, "sample", "service.sessions_active")[-1]["value"] == 0.0

    @pytest.mark.parametrize("observability", [True, False])
    @pytest.mark.parametrize("retry_attempts", [0, 2])
    def test_every_ending_with_observability_on_or_off(
        self, grnet_8am, retry_attempts, observability
    ):
        service = self.build(grnet_8am, retry_attempts, observability)
        requests = self.drive(service)
        self.assert_endings(service, requests, retry_attempts)
        assert service.open_spans == {}

    @pytest.mark.parametrize("retry_attempts", [0, 2])
    def test_the_finished_event_carries_the_outcome(self, grnet_8am, retry_attempts):
        """A failure's span ends with the request's reason; a completed
        stream's with the startup and stall of its session record."""
        service = self.build(grnet_8am, retry_attempts)
        requests = self.drive(service)
        self.assert_endings(service, requests, retry_attempts)
        records = {r.request.client_id: r for r in service.sessions}
        finished = {row["client_id"]: row["events"][-1] for row in rows_of(service, "span")}
        assert finished.keys() == records.keys()
        for name, request in requests.items():
            event = finished[request.client_id]
            assert event["kind"] == "finished"
            assert event["status"] == request.status.value
            if name == "completed":
                record = records[request.client_id]
                assert event["startup_s"] == record.startup_delay_s
                assert event["stall_s"] == record.stall_s
                assert "reason" not in event
            else:  # shed, blocked at submit or admit, failed mid-stream
                assert event["reason"] == request.failure_reason
                assert "startup_s" not in event and "stall_s" not in event
