"""Session supervisor: preemption, mid-stream migration, fail verdicts."""

import pytest

from repro.client.requests import RequestStatus
from repro.core.service import ServiceConfig, VoDService
from repro.faults import DiskFailure, FaultInjector, FaultSchedule
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def make_service(**config_overrides):
    defaults = dict(
        cluster_mb=100.0,
        use_reported_stats=False,
        session_failover=True,
    )
    defaults.update(config_overrides)
    sim = Simulator(start_time=8 * 3600.0)
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    return VoDService(sim, topology, ServiceConfig(**defaults))


def feature():
    return VideoTitle("feature", size_mb=800.0, duration_s=3600.0)


class TestMidStreamFailover:
    def test_crash_migrates_before_the_cluster_boundary(self):
        service = make_service()
        service.seed_title("U4", feature())
        service.seed_title("U5", feature())
        service.start()
        source = service.decide("U2", "feature").chosen_uid
        request, session, _ = service.request_by_home("U2", "feature")
        sim = service.sim
        sim.schedule(
            600.0, lambda: setattr(service.servers[source], "online", False)
        )
        sim.run(until=sim.now + 3 * 3600.0)

        record = session.record
        assert request.status is RequestStatus.COMPLETED
        # The fault preempted an in-flight segment and the session
        # migrated mid-cluster instead of waiting for the boundary.
        assert service.supervisor.preemption_count >= 1
        assert service.supervisor.failover_count >= 1
        assert record.failover_count >= 1
        assert set(record.servers_used) == {"U4", "U5"}
        assert all(stall >= 0.0 for stall in service.supervisor.stall_log)
        assert service.flows.active_count == 0  # no leaked reservations
        assert service.supervisor.tracked_count == 0

    def test_sole_crashed_holder_is_ridden_out_with_backoff(self):
        service = make_service(failover_backoff_s=30.0)
        service.seed_title("U4", feature())
        service.start()
        request, session, _ = service.request_by_home("U2", "feature")
        sim = service.sim
        sim.schedule(
            600.0, lambda: setattr(service.servers["U4"], "online", False)
        )
        sim.schedule(
            1_500.0, lambda: setattr(service.servers["U4"], "online", True)
        )
        sim.run(until=sim.now + 6 * 3600.0)

        # A full copy still existed (crashed, recovering), so the
        # supervisor stalled instead of failing the session.
        assert request.status is RequestStatus.COMPLETED
        assert session.record.failover_count >= 1
        assert session.record.failover_stall_s > 0.0
        assert service.supervisor.failed_count == 0
        assert service.flows.active_count == 0

    def test_disk_failure_preempts_affected_sessions(self):
        service = make_service()
        service.seed_title("U4", feature())
        service.seed_title("U5", feature())
        service.start()
        source = service.decide("U2", "feature").chosen_uid
        request, session, _ = service.request_by_home("U2", "feature")
        injector = FaultInjector(
            service,
            FaultSchedule.scripted(
                DiskFailure(600.0, 3_600.0, server_uid=source, disk_index=0)
            ),
        )
        injector.start()
        sim = service.sim
        sim.run(until=sim.now + 4 * 3600.0)

        assert request.status is RequestStatus.COMPLETED
        # The server stayed online, so only the explicit disk-failure
        # notification can have caused the preemption.
        assert service.supervisor.preemption_count >= 1
        assert session.record.failover_count >= 1
        assert service.flows.active_count == 0

    def test_session_fails_only_when_last_copy_is_gone(self):
        service = make_service()
        service.seed_title("U4", feature())
        service.start()
        request, session, _ = service.request_by_home("U2", "feature")
        sim = service.sim

        def vanish():
            # Withdraw the only advertised copy, then crash its server:
            # the preempted session finds no registered full holder.
            service.database.remove_title_from_server("U4", "feature")
            service.servers["U4"].online = False

        sim.schedule(600.0, vanish)
        sim.run(until=sim.now + 2 * 3600.0)

        assert request.status is RequestStatus.FAILED
        assert service.supervisor.failed_count == 1
        entry = service.supervisor.failed_log[0]
        assert entry["title_id"] == "feature"
        # The invariant the verdict encodes: no online full holder
        # existed at (or after) the failure instant.
        assert service.supervisor.holder_online("feature") is False
        assert service.supervisor.holder_exists("feature") is False
        assert service.flows.active_count == 0
        assert service.supervisor.tracked_count == 0


class TestFaultAtAClusterBoundary:
    def run_once(self, flap_at=None):
        service = make_service()
        service.seed_title("U4", feature())
        service.seed_title("U5", feature())
        service.start()
        sim = service.sim
        source = service.decide("U2", "feature").chosen_uid
        if flap_at is not None:
            # Queued before the session exists, so it fires ahead of the
            # step that completes the cluster at the same instant.
            def flap():
                service.servers[source].online = False
                service.servers[source].online = True

            sim.schedule_at(flap_at, flap)
        request, session, _ = service.request_by_home("U2", "feature")
        sim.run(until=sim.now + 3 * 3600.0)
        assert request.status is RequestStatus.COMPLETED
        return service, session.record

    def test_a_fault_as_the_cluster_completes_does_not_haunt_the_next_one(self):
        _, clean = self.run_once()
        assert len(clean.clusters) == 8
        service, record = self.run_once(flap_at=clean.clusters[0].end)
        # The segment was preempted with nothing left to move: the cluster
        # is complete, so no failover happens and the reason dies with the
        # transfer instead of abandoning cluster 1 after one quantum.
        assert service.supervisor.preemption_count == 1
        assert service.supervisor.failover_count == 0
        assert record.failover_count == 0
        assert [c.index for c in record.clusters] == list(range(8))
        assert [c.size_mb for c in record.clusters] == [c.size_mb for c in clean.clusters]
        assert service.flows.active_count == 0
        assert service.supervisor.tracked_count == 0


class TestFaultFreeEquivalence:
    def run_once(self, session_failover):
        service = make_service(session_failover=session_failover)
        service.seed_title("U4", feature())
        service.seed_title("U5", feature())
        service.start()
        request, session, _ = service.request_by_home("U2", "feature")
        service.sim.run(until=service.sim.now + 3 * 3600.0)
        assert request.status is RequestStatus.COMPLETED
        return service, session.record

    def test_supervisor_is_invisible_without_faults(self):
        service, on = self.run_once(True)
        _, off = self.run_once(False)
        supervisor = service.supervisor
        assert supervisor is not None
        assert (supervisor.preemption_count, supervisor.failover_count) == (0, 0)
        assert supervisor.tracked_count == 0
        assert on.failover_count == 0
        assert len(on.clusters) == len(off.clusters)
        for a, b in zip(on.clusters, off.clusters):
            assert a.server_uid == b.server_uid
            assert a.path_nodes == b.path_nodes
            assert a.rate_mbps == b.rate_mbps
            assert a.start == b.start
            assert a.end == b.end
            assert a.size_mb == pytest.approx(b.size_mb)
        assert on.completed_at == off.completed_at
        assert on.stall_s == off.stall_s
