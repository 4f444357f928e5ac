"""Unit tests for best-effort in-flight rate adaptation (DESIGN.md §5b.1)."""

import pytest

from repro.client.requests import VideoRequest
from repro.core.session import StreamingSession
from repro.core.vra import VraDecision
from repro.errors import ReproError
from repro.network.flows import FlowManager
from repro.network.routing.paths import Path
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.storage.video import VideoTitle


def make_decision(nodes):
    return VraDecision(
        title_id="v",
        home_uid=nodes[0],
        chosen_uid=nodes[-1],
        served_locally=len(nodes) == 1,
        path=Path(nodes=tuple(nodes), cost=1.0),
    )


def build_session(line, video, quantum=60.0):
    sim = Simulator()
    flows = FlowManager(line)
    request = VideoRequest(client_id="c", home_uid="A", title_id="v", submitted_at=0.0)
    session = StreamingSession(
        sim=sim,
        request=request,
        video=video,
        cluster_mb=video.size_mb,  # single cluster: isolates in-flight behaviour
        decide=lambda cluster: make_decision(["A", "B"]),
        flows=flows,
        servers={},
        rate_update_period_s=quantum,
    )
    Process(sim, session.run())
    return sim, session


class TestMidTransferDegradation:
    def test_congestion_mid_cluster_slows_the_transfer(self, line):
        # 100 MB at 8 Mbps playback would take 100 s; congesting the link
        # at t=30 s leaves ~70 MB to crawl at ~2 Mbps.
        video = VideoTitle("v", size_mb=100.0, duration_s=100.0)  # 8 Mbps
        sim, session = build_session(line, video, quantum=10.0)
        sim.schedule(30.0, lambda: line.link_between("A", "B").set_background_mbps(8.0))
        sim.run()
        record = session.record
        assert record.completed
        duration = record.completed_at - record.request.submitted_at
        # 30 s at 8 Mbps (30 MB) + 70 MB at 2 Mbps (280 s) = ~310 s.
        assert duration == pytest.approx(310.0, rel=0.05)
        assert record.qos_violation_count == 1

    def test_transfer_recovers_when_congestion_clears(self, line):
        video = VideoTitle("v", size_mb=100.0, duration_s=100.0)  # 8 Mbps
        line.link_between("A", "B").set_background_mbps(8.0)  # 2 Mbps free
        sim, session = build_session(line, video, quantum=10.0)
        sim.schedule(40.0, lambda: line.link_between("A", "B").set_background_mbps(0.0))
        sim.run()
        record = session.record
        # 40 s at 2 Mbps (10 MB) + 90 MB at 8 Mbps (90 s) = ~130 s;
        # without recovery it would have been 400 s.
        duration = record.completed_at - record.request.submitted_at
        assert duration == pytest.approx(130.0, rel=0.05)

    def test_steady_conditions_unaffected_by_quantum(self, line):
        video = VideoTitle("v", size_mb=100.0, duration_s=800.0)  # 1 Mbps
        durations = {}
        for quantum in (10.0, 60.0, 10_000.0):
            topology_line = line  # same idle conditions each time
            sim, session = build_session(topology_line, video, quantum=quantum)
            sim.run()
            durations[quantum] = session.record.completed_at
        values = list(durations.values())
        assert all(v == pytest.approx(values[0], rel=1e-6) for v in values)

    def test_rate_reported_is_average(self, line):
        video = VideoTitle("v", size_mb=100.0, duration_s=100.0)
        sim, session = build_session(line, video, quantum=10.0)
        sim.schedule(30.0, lambda: line.link_between("A", "B").set_background_mbps(8.0))
        sim.run()
        cluster = session.record.clusters[0]
        expected = 100.0 * 8.0 / (cluster.end - cluster.start)
        assert cluster.rate_mbps == pytest.approx(expected)

    def test_invalid_quantum_rejected(self, line):
        video = VideoTitle("v", size_mb=10.0, duration_s=10.0)
        with pytest.raises(ReproError):
            build_session(line, video, quantum=0.0)

    def test_reservation_follows_rerating(self, line):
        # While degraded, the session must not keep its original larger
        # reservation pinned on the link.
        video = VideoTitle("v", size_mb=100.0, duration_s=100.0)  # 8 Mbps
        link = line.link_between("A", "B")
        sim, session = build_session(line, video, quantum=10.0)
        sim.schedule(30.0, lambda: link.set_background_mbps(8.0))
        sim.run(until=100.0)
        # At t=100 the transfer crawls at ~2 Mbps: reservation <= 2.
        assert link.reserved_mbps <= 2.0 + 1e-9
        sim.run()
        assert session.record.completed
        assert link.reserved_mbps == 0.0
