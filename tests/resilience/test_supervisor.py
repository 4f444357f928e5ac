"""Session supervisor: preemption, mid-stream migration, fail verdicts."""

import pytest

from repro.baselines.selection import MinHopSelection
from repro.client.requests import RequestStatus
from repro.core.service import ServiceConfig, VoDService
from repro.faults import DiskFailure, FaultInjector, FaultSchedule
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.network.link import Link
from repro.network.node import Node
from repro.placement import PlacementConfig
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

    def test_a_server_added_at_runtime_is_supervised_too(self):
        service = make_service()
        service.seed_title("U4", feature())
        service.start()
        # Kalamata joins next to Patra with a copy: the nearest holder.
        service.add_server(
            Node("U7", name="Kalamata"),
            [Link("U7", "U2", capacity_mbps=10.0, name="Kalamata-Patra")],
        )
        service.seed_title("U7", feature())
        request, session, _ = service.request_by_home("U2", "feature")
        sim = service.sim
        sim.schedule(600.0, lambda: setattr(service.servers["U7"], "online", False))
        sim.run(until=sim.now + 3 * 3600.0)

        # Its crash reached the supervisor: the segment was preempted
        # mid-cluster and the stream moved to the other holder.
        assert request.status is RequestStatus.COMPLETED
        assert service.supervisor.preemption_count >= 1
        assert session.record.servers_used == ["U7", "U4"]

    def test_sole_crashed_holder_is_ridden_out_with_backoff(self):
        service = make_service()
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
            FaultSchedule([
                DiskFailure(600.0, 3_600.0, server_uid=source, disk_index=0)
            ]),
        )
        injector.start()
        sim = service.sim
        sim.run(until=sim.now + 4 * 3600.0)

        assert request.status is RequestStatus.COMPLETED
        # The server stayed online, so only the disk's DISK publish can
        # have caused the preemption.
        assert service.supervisor.preemption_count >= 1
        assert session.record.failover_count >= 1
        assert service.flows.active_count == 0

    def test_a_link_outage_preempts_the_segment_on_it(self):
        service = make_service()
        service.seed_title("U4", feature())
        service.seed_title("U5", feature())
        service.start()
        path = service.decide("U2", "feature").path.nodes
        link = service.topology.link_between(path[0], path[1])
        request, session, _ = service.request_by_home("U2", "feature")
        sim = service.sim
        sim.schedule(600.0, lambda: setattr(link, "online", False))
        sim.run(until=sim.now + 4 * 3600.0)

        assert request.status is RequestStatus.COMPLETED
        assert service.supervisor.preemption_count == 1
        assert session.record.failover_count >= 1
        assert service.flows.active_count == 0

    def test_a_disk_failure_preempts_whoever_applies_it(self):
        """The array publishes the death on the change feed, so a disk
        failed outside the fault injector preempts just the same."""
        service = make_service()
        service.seed_title("U4", feature())
        service.seed_title("U5", feature())
        service.start()
        source = service.decide("U2", "feature").chosen_uid
        request, session, _ = service.request_by_home("U2", "feature")
        sim = service.sim
        sim.schedule(600.0, lambda: service.servers[source].array.fail_disk(0))
        sim.run(until=sim.now + 4 * 3600.0)

        assert request.status is RequestStatus.COMPLETED
        assert service.supervisor.preemption_count == 1
        assert session.record.servers_used == [source, ({"U4", "U5"} - {source}).pop()]
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


class TestStallWakeUps:
    """A failed re-decide parks on the change feed: the stall ends in the
    event of the input that ends the outage, with one decide per wake-up."""

    @staticmethod
    def count_decides(service):
        """Count ``service.decide`` calls (sessions look it up per call)."""
        calls = []
        decide = service.decide

        def counted(home_uid, title_id, cluster=None):
            calls.append(service.sim.now)
            return decide(home_uid, title_id, cluster)

        service.decide = counted
        return calls

    def test_a_recovery_resumes_the_stall_in_its_own_event(self):
        service = make_service()
        service.seed_title("U4", feature())
        service.start()
        request, session, _ = service.request_by_home("U2", "feature")
        sim = service.sim
        crash_at, recover_at = sim.now + 600.0, sim.now + 1_537.25
        server = service.servers["U4"]
        sim.schedule_at(crash_at, lambda: setattr(server, "online", False))
        sim.schedule_at(recover_at, lambda: setattr(server, "online", True))
        sim.run(until=recover_at)

        record = session.record
        supervisor = service.supervisor
        assert not supervisor._waiters
        assert (supervisor.wakeups, supervisor.stall_decides, supervisor.failover_count) == (1, 1, 1)
        # The stall is the outage itself, not a multiple of a poll period.
        assert supervisor.stall_log == [recover_at - crash_at] == [937.25]
        assert record.failover_stall_s == 937.25
        sim.run(until=sim.now + 6 * 3600.0)
        assert request.status is RequestStatus.COMPLETED
        resumed = [c for c in record.clusters if c.start > crash_at]
        assert resumed[0].start == recover_at

    @pytest.mark.parametrize("policy", [None, MinHopSelection])
    def test_a_partitioned_stall_resumes_at_the_link_up(self, policy):
        service = make_service()
        if policy is not None:  # a baseline's partition is a partition too
            service.vra = policy(service.topology)
        service.seed_title("U4", feature())
        service.start()
        request, session, _ = service.request_by_home("U2", "feature")
        sim = service.sim
        links = [service.topology.link_named(name) for name in ("Patra-Athens", "Patra-Ioannina")]
        cut_at, mend_at = sim.now + 600.0, sim.now + 2_000.5

        def cut():
            for link in links:
                link.online = False

        sim.schedule_at(cut_at, cut)
        sim.schedule_at(mend_at, lambda: setattr(links[1], "online", True))
        calls = self.count_decides(service)
        sim.run(until=mend_at)

        supervisor = service.supervisor
        # One decide found the home cut off; slot churn at the holder it
        # could not reach woke nothing; the link-up woke it once.
        assert [t for t in calls if t > cut_at - 1.0] == [cut_at, mend_at]
        assert (supervisor.wakeups, supervisor.stall_decides) == (1, 1)
        assert supervisor.stall_log == [mend_at - cut_at]
        sim.run(until=sim.now + 6 * 3600.0)
        assert request.status is RequestStatus.COMPLETED
        assert session.record.clusters[-1].path_nodes[:2] == ("U2", "U3")

    def test_slot_churn_at_an_unservable_holder_wakes_nobody(self):
        service = make_service()
        service.seed_title("U4", feature())
        service.start()
        request, session, _ = service.request_by_home("U2", "feature")
        sim = service.sim
        holder = service.servers["U4"]
        fail_at, restore_at = sim.now + 600.0, sim.now + 3_000.0
        sim.schedule_at(fail_at, holder.array.fail_disk, 0)
        leases = []
        for k in range(10):  # another stream comes and goes at the holder
            sim.schedule_at(fail_at + 100.0 + 200.0 * k, lambda: leases.append(holder.admission.admit()))
            sim.schedule_at(fail_at + 200.0 + 200.0 * k, lambda: holder.admission.release(leases.pop()))
        sim.schedule_at(restore_at, holder.array.restore_disk, 0)
        calls = self.count_decides(service)
        sim.run(until=restore_at)

        supervisor = service.supervisor
        assert [t for t in calls if t >= fail_at] == [fail_at, restore_at]
        assert supervisor.wakeups == supervisor.stall_decides == 1
        assert supervisor.stall_log == [restore_at - fail_at]
        sim.run(until=sim.now + 6 * 3600.0)
        assert request.status is RequestStatus.COMPLETED

    def test_a_recovery_wakes_each_waiter_once(self):
        service = make_service()
        service.seed_title("U4", feature())
        service.start()
        sessions = [service.request_by_home(home, "feature")[1] for home in ("U1", "U2", "U3")]
        sim = service.sim
        server = service.servers["U4"]
        crash_at, recover_at = sim.now + 600.0, sim.now + 1_200.0
        sim.schedule_at(crash_at, lambda: setattr(server, "online", False))
        sim.schedule_at(recover_at, lambda: setattr(server, "online", True))
        signals = []
        schedule = sim.schedule

        def spy(delay, callback, *args, name="", **options):  # passes stepping= on
            if name.startswith("signal:"):
                signals.append((sim.now, name))
            return schedule(delay, callback, *args, name=name, **options)

        sim.schedule = spy
        sim.run(until=sim.now + 6 * 3600.0)

        supervisor = service.supervisor
        # The recovery publishes AVAILABILITY then SERVER: one wake-up each.
        assert [at for at, _ in signals] == [recover_at] * len(sessions)
        assert supervisor.wakeups == supervisor.stall_decides == len(sessions)
        assert supervisor.stall_log == [recover_at - crash_at] * len(sessions)
        assert all(s.record.request.status is RequestStatus.COMPLETED for s in sessions)

    def test_a_new_holder_ends_the_stall_as_it_is_advertised(self):
        service = make_service()
        service.seed_title("U4", feature())
        service.start()
        request, session, _ = service.request_by_home("U2", "feature")
        sim = service.sim
        crash_at, seed_at = sim.now + 600.0, sim.now + 900.0
        sim.schedule_at(crash_at, lambda: setattr(service.servers["U4"], "online", False))
        sim.schedule_at(seed_at, service.seed_title, "U5", feature())
        sim.run(until=sim.now + 6 * 3600.0)

        supervisor = service.supervisor
        assert request.status is RequestStatus.COMPLETED
        assert (supervisor.wakeups, supervisor.stall_decides) == (1, 1)
        assert supervisor.stall_log == [seed_at - crash_at]
        assert session.record.servers_used == ["U4", "U5"]

    def test_a_stall_on_a_partial_holders_cluster_wakes_when_it_can_serve_it(self):
        service = make_service(placement=PlacementConfig(kind="prefix", prefix_minutes=15.0))
        service.seed_title("U4", feature())
        prefix = service.servers["U2"]
        for _ in range(2):  # the second pass makes the title hot: a 200 MB prefix
            prefix.on_download_begins(feature())
        assert service.database.cluster_holders("feature", 100.0) == ("U2", "U4")
        service.start()
        request, session, _ = service.request_by_home("U1", "feature")
        sim = service.sim
        crash_at, back_at, full_back_at = sim.now + 200.0, sim.now + 700.0, sim.now + 2_000.0
        full = service.servers["U4"]

        def crash():
            prefix.online = False
            full.online = False

        sim.schedule_at(crash_at, crash)
        sim.schedule_at(back_at, lambda: setattr(prefix, "online", True))
        sim.schedule_at(full_back_at, lambda: setattr(full, "online", True))
        sim.run(until=back_at - 1.0)

        supervisor = service.supervisor
        # Cluster 0 came from the neighbour's prefix; both its holders are
        # down, and the stall watches each for cluster 0.
        assert [stall.watched for stall in supervisor._waiters] == [(("U2", 0), ("U4", 0))]
        sim.run(until=back_at)
        assert (supervisor.wakeups, supervisor.stall_decides) == (1, 1)
        assert supervisor.stall_log == [back_at - crash_at]
        sim.run(until=sim.now + 6 * 3600.0)
        assert request.status is RequestStatus.COMPLETED
        assert [(c.index, c.server_uid) for c in session.record.clusters][:3] == [
            (0, "U2"), (0, "U2"), (1, "U2"),
        ]
        assert {c.server_uid for c in session.record.clusters[3:]} == {"U4"}

    def test_losing_the_last_copy_fails_its_waiters_at_that_instant(self):
        service = make_service()
        service.seed_title("U4", feature())
        service.start()
        requests = [service.request_by_home(home, "feature")[0] for home in ("U1", "U2")]
        sim = service.sim
        crash_at, lost_at = sim.now + 600.0, sim.now + 1_000.0
        sim.schedule_at(crash_at, lambda: setattr(service.servers["U4"], "online", False))
        sim.schedule_at(
            lost_at, service.database.remove_title_from_server, "U4", "feature"
        )
        calls = self.count_decides(service)
        sim.run(until=lost_at)

        supervisor = service.supervisor
        assert [request.status for request in requests] == [RequestStatus.FAILED] * 2
        assert all("no full holder" in request.failure_reason for request in requests)
        assert [entry["at_s"] for entry in supervisor.failed_log] == [lost_at, lost_at]
        # Failed by the supervisor, not by another decide.
        assert [t for t in calls if t > crash_at] == []
        assert supervisor.wakeups == supervisor.stall_decides == 0
        assert not supervisor._waiters
        assert service.flows.active_count == 0
