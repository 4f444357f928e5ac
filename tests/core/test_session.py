"""Unit tests for the per-cluster streaming session."""

import pytest

from repro.client.requests import RequestStatus, VideoRequest
from repro.core.session import SessionObserver, StreamingSession
from repro.core.vra import VraDecision
from repro.errors import LinkCapacityError, RoutingError
from repro.network.flows import FlowManager
from repro.network.routing.paths import Path
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.storage.video import VideoTitle


def make_decision(nodes, cost=0.1):
    path = Path(nodes=tuple(nodes), cost=cost)
    return VraDecision(
        title_id="v",
        home_uid=nodes[0],
        chosen_uid=nodes[-1],
        served_locally=len(nodes) == 1,
        path=path,
    )


def run_session(line, decide, video=None, cluster_mb=25.0, local_read_mbps=100.0, flows=None):
    sim = Simulator()
    flows = flows or FlowManager(line)
    video = video or VideoTitle("v", size_mb=100.0, duration_s=800.0)  # 1 Mbps
    request = VideoRequest(client_id="c", home_uid="A", title_id="v", submitted_at=sim.now)
    session = StreamingSession(
        sim=sim,
        request=request,
        video=video,
        cluster_mb=cluster_mb,
        decide=decide,
        flows=flows,
        servers={},
        local_read_mbps=local_read_mbps,
    )
    process = Process(sim, session.run(), name="test-session")
    sim.run()
    return session.record, process, sim, flows


class TestDelivery:
    def test_all_clusters_delivered_in_order(self, line):
        record, _, _, _ = run_session(line, lambda: make_decision(["A", "B", "C"]))
        assert record.request.status is RequestStatus.COMPLETED
        assert [c.index for c in record.clusters] == [0, 1, 2, 3]
        assert sum(c.size_mb for c in record.clusters) == pytest.approx(100.0)

    def test_transfer_time_matches_rate(self, line):
        # 100 MB at 1 Mbps bitrate = 800 s total.
        record, _, sim, _ = run_session(line, lambda: make_decision(["A", "B"]))
        assert record.completed_at == pytest.approx(800.0)
        assert sim.now == pytest.approx(800.0)

    def test_local_serve_uses_disk_rate(self, line):
        # 100 MB at 100 Mbps = 8 s.
        record, _, _, _ = run_session(line, lambda: make_decision(["A"]))
        assert record.completed_at == pytest.approx(8.0)
        assert all(c.rate_mbps == 100.0 for c in record.clusters)
        assert record.servers_used == ["A"]

    def test_flows_reserved_during_transfer_and_released_after(self, line):
        states = []

        def decide():
            states.append(line.link_between("A", "B").reserved_mbps)
            return make_decision(["A", "B"])

        record, _, _, flows = run_session(line, decide)
        # At each decide() call the previous cluster's flow was released.
        assert all(r == 0.0 for r in states)
        assert flows.active_count == 0
        assert record.completed

    def test_startup_delay_is_first_cluster_time(self, line):
        record, _, _, _ = run_session(line, lambda: make_decision(["A", "B"]))
        # 25 MB at 1 Mbps = 200 s.
        assert record.startup_delay_s == pytest.approx(200.0)

    def test_no_stall_when_bandwidth_sufficient(self, line):
        record, _, _, _ = run_session(line, lambda: make_decision(["A", "B"]))
        assert record.stall_s == pytest.approx(0.0)


class TestSwitching:
    def test_switch_counted_when_server_changes(self, line):
        decisions = iter(
            [
                make_decision(["A", "B"]),
                make_decision(["A", "B"]),
                make_decision(["A", "B", "C"]),
                make_decision(["A", "B", "C"]),
            ]
        )
        record, _, _, _ = run_session(line, lambda: next(decisions))
        assert record.switch_count == 1
        assert record.servers_used == ["B", "C"]
        assert [c.switched for c in record.clusters] == [False, False, True, False]

    def test_no_switch_when_server_stable(self, line):
        record, _, _, _ = run_session(line, lambda: make_decision(["A", "B"]))
        assert record.switch_count == 0

    def test_cluster_size_sets_decision_granularity(self, line):
        calls = []

        def decide():
            calls.append(True)
            return make_decision(["A", "B"])

        run_session(line, decide, cluster_mb=10.0)  # 10 clusters
        assert len(calls) == 10


class TestDegradation:
    def test_congested_path_degrades_rate_and_flags_qos(self, line):
        line.link_between("A", "B").set_background_mbps(9.5)  # 0.5 Mbps free
        record, _, _, _ = run_session(line, lambda: make_decision(["A", "B"]))
        assert record.completed
        assert record.qos_violation_count == len(record.clusters)
        assert all(c.rate_mbps == pytest.approx(0.5) for c in record.clusters)
        assert record.stall_s > 0.0

    def test_fully_saturated_path_uses_floor_rate(self, line):
        line.link_between("A", "B").set_background_mbps(10.0)
        video = VideoTitle("v", size_mb=1.0, duration_s=8.0)  # tiny, 1 Mbps
        record, _, _, _ = run_session(line, lambda: make_decision(["A", "B"]), video=video)
        assert record.completed
        assert all(c.rate_mbps == pytest.approx(0.05) for c in record.clusters)

    @staticmethod
    def counting_reserve(flows):
        """Wrap ``flows.reserve`` on the instance (as the perf ledger's
        tracer does) and count calls and refusals."""
        seen = {"calls": 0, "refused": 0}
        reserve = flows.reserve

        def counted(node_path, rate_mbps):
            seen["calls"] += 1
            try:
                return reserve(node_path, rate_mbps)
            except LinkCapacityError:
                seen["refused"] += 1
                raise

        flows.reserve = counted
        return seen

    def test_saturated_path_takes_the_floor_without_a_refused_reservation(self, line):
        line.link_between("A", "B").set_background_mbps(10.0)
        flows = FlowManager(line)
        seen = self.counting_reserve(flows)
        video = VideoTitle("v", size_mb=1.0, duration_s=8.0)
        record, _, _, _ = run_session(
            line, lambda: make_decision(["A", "B"]), video=video, flows=flows
        )
        assert record.completed
        assert all(c.rate_mbps == pytest.approx(0.05) for c in record.clusters)
        # The floor clamp lifted the rate above the spare capacity, which
        # the bottleneck already shows: nothing is asked, nothing raised.
        assert seen == {"calls": 0, "refused": 0}

    def test_congested_path_reserves_through_the_instance_every_step(self, line):
        line.link_between("A", "B").set_background_mbps(9.5)
        flows = FlowManager(line)
        seen = self.counting_reserve(flows)
        record, _, sim, _ = run_session(line, lambda: make_decision(["A", "B"]), flows=flows)
        assert record.completed
        # 100 MB at 0.5 Mbps in 60 s quanta: one granted reservation a step.
        assert seen == {"calls": sim.events_fired - 1, "refused": 0}
        assert flows.active_count == 0

    def test_path_crossing_a_link_twice_falls_back_to_the_floor(self, line):
        # 1.5 Mbps free fits the 1 Mbps bottleneck test once, but the path
        # crosses A-B three times: reserve's own refusal is the safety net.
        link = line.link_between("A", "B")
        link.set_background_mbps(8.5)
        flows = FlowManager(line)
        seen = self.counting_reserve(flows)
        video = VideoTitle("v", size_mb=1.0, duration_s=8.0)
        record, _, _, _ = run_session(
            line, lambda: make_decision(["A", "B", "A", "B"]), video=video, flows=flows
        )
        assert record.completed
        assert all(c.rate_mbps == pytest.approx(0.05) for c in record.clusters)
        assert seen["calls"] == seen["refused"] > 0
        assert flows.active_count == 0 and link.reserved_mbps == 0.0

    def test_decide_failure_fails_request(self, line):
        def decide():
            raise RoutingError("no candidates")

        record, process, _, _ = run_session(line, decide)
        assert record.request.status is RequestStatus.FAILED
        assert "no candidates" in record.request.failure_reason
        assert record.clusters == []
        assert process.finished

    def test_mid_stream_failure_keeps_partial_clusters(self, line):
        calls = {"n": 0}

        def decide():
            calls["n"] += 1
            if calls["n"] > 2:
                raise RoutingError("source died")
            return make_decision(["A", "B"])

        record, _, _, flows = run_session(line, decide)
        assert record.request.status is RequestStatus.FAILED
        assert len(record.clusters) == 2
        assert flows.active_count == 0  # nothing leaked


class TestPoke:
    def run_once(self, line, poke_at=None):
        sim = Simulator()
        flows = FlowManager(line)
        video = VideoTitle("v", size_mb=100.0, duration_s=800.0)  # 1 Mbps
        request = VideoRequest(client_id="c", home_uid="A", title_id="v", submitted_at=0.0)
        session = StreamingSession(
            sim=sim, request=request, video=video, cluster_mb=25.0,
            decide=lambda: make_decision(["A", "B"]), flows=flows, servers={},
        )
        process = Process(sim, session.run(), name="poked")
        if poke_at is not None:
            sim.schedule_at(poke_at, process.poke)
        sim.run()
        return session.record, flows

    def test_a_poked_step_is_credited_for_the_time_it_ran(self, line):
        clean, _ = self.run_once(line)
        # 30 s into a 60 s step, no supervisor: the step moved half its bytes.
        record, flows = self.run_once(line, poke_at=90.0)
        assert record.completed
        assert sum(c.size_mb for c in record.clusters) == 100.0
        assert record.completed_at >= clean.completed_at
        assert record.completed_at == pytest.approx(800.0)
        assert flows.active_count == 0
        assert all(link.reserved_mbps == 0.0 for link in line.links())


class TestPlaybackMetrics:
    def test_stall_accounts_for_late_clusters(self, line):
        # First cluster fast (local), rest slow (remote congested) --
        # playback must out-run the downloads and stall.
        line.link_between("A", "B").set_background_mbps(9.0)  # 1 Mbps free
        decisions = iter(
            [make_decision(["A"])] + [make_decision(["A", "B"])] * 3
        )
        video = VideoTitle("v", size_mb=100.0, duration_s=100.0)  # 8 Mbps playback
        record, _, _, _ = run_session(line, lambda: next(decisions), video=video)
        assert record.completed
        assert record.stall_s > 0.0

    def test_observer_hears_each_cluster_and_the_finish(self, line):
        sim = Simulator()
        flows = FlowManager(line)
        video = VideoTitle("v", size_mb=50.0, duration_s=400.0)
        request = VideoRequest(client_id="c", home_uid="A", title_id="v", submitted_at=0.0)

        class Recorder(SessionObserver):
            def __init__(self):
                self.heard = []

            def cluster(self, record):
                self.heard.append(("cluster", record.index))

            def finish(self, record):
                self.heard.append(("finish", record))

        observer = Recorder()
        session = StreamingSession(
            sim=sim,
            request=request,
            video=video,
            cluster_mb=25.0,
            decide=lambda: make_decision(["A", "B"]),
            flows=flows,
            servers={},
            observer=observer,
        )
        Process(sim, session.run())
        sim.run()
        assert observer.heard == [
            ("cluster", 0), ("cluster", 1), ("finish", session.record)
        ]
