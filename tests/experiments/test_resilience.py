"""Resilience experiment: bit-for-bit replay and retry-driven recovery."""

import pytest

from repro.client.requests import RequestStatus
from repro.core.service import ServiceConfig, VoDService
from repro.experiments.resilience import (
    render_resilience_report,
    run_resilience_experiment,
)
from repro.faults import FaultInjector, FaultSchedule, ServerCrash
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def session_fingerprint(service):
    """Everything observable about a run's sessions, deterministically."""
    return [
        (
            r.request.client_id,
            r.request.title_id,
            r.request.status.value,
            r.retry_count,
            r.retry_wait_s,
            r.recovered,
            tuple(r.servers_used),
            len(r.clusters),
            r.startup_delay_s,
            r.stall_s,
        )
        for r in service.sessions
    ]


class TestReplay:
    def test_same_seed_replays_bit_for_bit(self):
        kwargs = dict(
            seed=13,
            duration_s=1800.0,
            requests_per_node=4,
            link_flap_rate_per_h=6.0,
            link_degrade_rate_per_h=6.0,
            server_crash_rate_per_h=4.0,
            disk_failure_rate_per_h=2.0,
            snmp_blackout_rate_per_h=2.0,
            mean_fault_duration_s=180.0,
        )
        first = run_resilience_experiment(**kwargs)
        second = run_resilience_experiment(**kwargs)
        # Identical reports (counts, availability, MTTR, session metrics)...
        assert first.report == second.report
        # ...identical fault timelines and injection counters...
        assert list(first.schedule) == list(second.schedule)
        assert first.injector.log == second.injector.log
        for counters in ("injected_by_kind", "recovered_by_kind", "mean_mttr_s"):
            assert getattr(first.injector, counters) == getattr(second.injector, counters)
        # ...and identical per-session records.
        assert session_fingerprint(first.service) == session_fingerprint(
            second.service
        )

    def test_different_seed_differs(self):
        kwargs = dict(duration_s=1800.0, requests_per_node=4)
        a = run_resilience_experiment(seed=13, **kwargs)
        b = run_resilience_experiment(seed=14, **kwargs)
        assert list(a.schedule) != list(b.schedule)

    def test_report_counts_are_consistent(self):
        run = run_resilience_experiment(
            seed=13, duration_s=1800.0, requests_per_node=4
        )
        report = run.report
        assert report.session_count >= report.completed_count + report.failed_count
        assert 0.0 <= report.availability <= 1.0
        assert report.faults_scheduled == len(run.schedule)
        assert sum(report.faults_injected.values()) <= report.faults_scheduled
        # Everything injected recovered: the sim drains past the horizon.
        assert report.faults_injected == report.faults_recovered
        rendered = render_resilience_report(report)
        assert "availability" in rendered
        assert f"seed {report.seed}" in rendered

    def test_as_dict_is_json_shaped(self):
        import json

        run = run_resilience_experiment(
            seed=13, duration_s=900.0, requests_per_node=2
        )
        payload = json.loads(json.dumps(run.report.as_dict()))
        assert payload["seed"] == 13
        assert set(payload["faults_injected"]) == set(
            run.report.faults_injected
        )


class TestCrashRecovery:
    def make_service(self, **overrides):
        defaults = dict(
            cluster_mb=50.0,
            disk_count=2,
            disk_capacity_mb=1_000.0,
            snmp_period_s=60.0,
            use_reported_stats=False,
            retry_attempts=6,
        )
        defaults.update(overrides)
        sim = Simulator()
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        return VoDService(sim, topology, ServiceConfig(**defaults))

    def test_session_survives_crash_of_every_source(self):
        """The acceptance scenario: the only holder crashes mid-stream;
        retry/backoff rides out the outage and the session completes."""
        service = self.make_service()
        service.seed_title("U4", VideoTitle("m1", size_mb=400.0, duration_s=3600.0))
        injector = FaultInjector(
            service,
            FaultSchedule([ServerCrash(600.0, 400.0, server_uid="U4")]),
        )
        request, session, _ = service.request_by_home("U2", "m1")
        injector.start()
        service.sim.run(until=6 * 3600.0)

        record = session.record
        assert request.status is RequestStatus.COMPLETED
        assert record.retry_count > 0
        assert record.retry_wait_s > 0.0
        assert record.recovered
        assert injector.mean_mttr_s == pytest.approx(400.0)
        assert service.flows.active_count == 0

    def test_without_retry_same_crash_fails_the_session(self):
        """Control: the paper's fail-fast default dies where retry survives."""
        service = self.make_service(retry_attempts=0)
        service.seed_title("U4", VideoTitle("m1", size_mb=400.0, duration_s=3600.0))
        injector = FaultInjector(
            service,
            FaultSchedule([ServerCrash(600.0, 400.0, server_uid="U4")]),
        )
        request, session, _ = service.request_by_home("U2", "m1")
        injector.start()
        service.sim.run(until=6 * 3600.0)
        assert request.status is RequestStatus.FAILED
        assert session.record.retry_count == 0
        assert not session.record.recovered

    def test_exhausted_retry_budget_fails(self):
        """An outage longer than the whole backoff ladder still fails."""
        service = self.make_service(retry_attempts=2)
        service.seed_title("U4", VideoTitle("m1", size_mb=400.0, duration_s=3600.0))
        injector = FaultInjector(
            service,
            # Down for far longer than 20 + 40 s of backoff.
            FaultSchedule([ServerCrash(600.0, 7_200.0, server_uid="U4")]),
        )
        request, session, _ = service.request_by_home("U2", "m1")
        injector.start()
        service.sim.run(until=12 * 3600.0)
        assert request.status is RequestStatus.FAILED
        assert session.record.retry_count == 2
        assert not session.record.recovered

