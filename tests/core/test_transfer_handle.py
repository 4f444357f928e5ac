"""A cluster transfer owns one event handle (DESIGN.md §5b.11).

The first step schedules it as a stepping handle, the engine re-arms it
by the step each of its callbacks returns, and a cut step (a preemption,
a ``Process.poke``, the session closing) lets it go: the next step
schedules a fresh one, and a finished transfer is freed by reference
counting alone.
"""

import gc
import weakref

import pytest

from repro.client.requests import VideoRequest
from repro.core.service import ServiceConfig
from repro.core.session import StreamingSession
from repro.core.vra import VraDecision
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.experiments.placement import session_fingerprint
from repro.network.flows import FlowManager
from repro.network.grnet import GRNET_NODES
from repro.network.routing.paths import Path
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.storage.video import VideoTitle
from repro.workload.scenarios import regional_scenario
from tests.core._fake_failover import FakeFailover


def make_decision(nodes):
    return VraDecision(
        title_id="v",
        home_uid=nodes[0],
        chosen_uid=nodes[-1],
        served_locally=len(nodes) == 1,
        path=Path(nodes=tuple(nodes), cost=1.0),
    )


class Control(FakeFailover):
    """A failover control that keeps only weak references to what it tracks."""

    def __init__(self):
        super().__init__()
        self.tracked = []

    def track(self, transfer):
        self.tracked.append(weakref.ref(transfer))

    def live(self):
        return [ref() for ref in self.tracked if ref() is not None]


def start_session(line, control=None, quantum=10.0):
    """One 100 MB, 1 Mbps title over A-B as a single cluster."""
    sim = Simulator()
    flows = FlowManager(line)
    video = VideoTitle("v", size_mb=100.0, duration_s=800.0)
    request = VideoRequest(client_id="c", home_uid="A", title_id="v", submitted_at=0.0)
    session = StreamingSession(
        sim=sim, request=request, video=video, cluster_mb=100.0,
        decide=lambda cluster: make_decision(["A", "B"]), flows=flows, servers={},
        rate_update_period_s=quantum, failover=control,
    )
    process = Process(sim, session.run(), name="s")
    return sim, session, process


def step_until(sim, time):
    """Fire every event up to ``time`` and move the clock there; the
    ``(time, name)`` of each event fired."""
    fired = []
    while sim.peek() is not None and sim.peek() <= time:
        event = sim.step()
        fired.append((event.time, event.name))
    sim.run(until=time)
    return fired


class TestOneHandle:
    def test_steps_rearm_the_handle_the_first_step_scheduled(self, line):
        sim, session, process = start_session(line)
        step_until(sim, 0.0)
        handle = process._pending_handle
        assert handle.name == "delay:s" and handle.time == 10.0
        fired = step_until(sim, 35.0)
        assert fired == [(10.0, "delay:s"), (20.0, "delay:s"), (30.0, "delay:s")]
        assert process._pending_handle is handle and handle.pending
        assert handle.event.key[0] == 40.0
        sim.run()
        assert session.record.completed_at == pytest.approx(800.0)

    def test_preempt_cancels_the_live_handle_and_fires_one_poke(self, line):
        control = Control()
        sim, session, process = start_session(line, control)
        step_until(sim, 35.0)  # k = 3 re-armed steps
        (transfer,) = control.live()
        live = process._pending_handle
        transfer.preempt("fault:test")
        transfer.preempt("fault:again")  # the first reason wins, no second poke
        assert live.cancelled and transfer.reason == "fault:test"
        fired = step_until(sim, 45.0)
        # One poke settles the cut step; the replacement segment's first
        # step is a fresh handle, and the cancelled one never fires.
        assert fired == [(35.0, "poke:s"), (45.0, "delay:s")]
        assert process._pending_handle is not live
        sim.run()
        record = session.record
        assert record.completed and record.failover_count == 1
        cut_mb = 35.0 / 8.0  # 35 s at 1 Mbps before the preemption
        assert [c.size_mb for c in record.clusters] == pytest.approx([cut_mb, 100.0 - cut_mb])
        assert record.completed_at == pytest.approx(800.0)

    def test_a_poke_parks_the_transfer_again_and_credits_the_elapsed_time(self, line):
        sim, session, process = start_session(line, quantum=60.0)
        step_until(sim, 90.0)
        before = process._pending_handle
        assert process.poke("nudge")
        assert before.cancelled
        fired = step_until(sim, 90.0)
        assert fired == [(90.0, "poke:s")]
        # Re-parked on a fresh handle, 60 s on, with 60 s + 30 s credited.
        after = process._pending_handle
        assert after is not before and after.time == 150.0 and after.name == "delay:s"
        transfer = after.callback.__self__
        assert transfer.remaining == 100.0 - 60.0 / 8.0 - 30.0 / 8.0
        sim.run()
        assert session.record.completed_at == pytest.approx(800.0)
        assert sum(c.size_mb for c in session.record.clusters) == 100.0


@pytest.mark.parametrize("cut", [None, "poke", "preempt"])
def test_a_finished_transfer_is_freed_without_the_cycle_collector(line, cut):
    control = Control()
    gc.disable()
    try:
        sim, session, process = start_session(line, control)
        step_until(sim, 35.0)
        if cut == "poke":
            process.poke()
        elif cut == "preempt":
            control.live()[0].preempt("fault:test")
        sim.run()
        assert session.record.completed
        assert control.tracked and control.live() == []
    finally:
        gc.enable()


def test_grnet_table2_run_is_pinned():
    """A small seeded GRNET day under the Table 2 traffic: the session
    fingerprint and the event count are those recorded before the
    transfer re-armed its handle, so the change moved no event."""
    catalog = [
        VideoTitle(f"title-{i:02d}", size_mb=100.0, duration_s=3600.0) for i in range(12)
    ]
    result = run_service_experiment(ServiceExperiment(
        name="pin",
        scenario=regional_scenario(
            list(GRNET_NODES), requests_per_node=2, seed=42, catalog=catalog
        ),
        config=ServiceConfig(
            cluster_mb=25.0, disk_count=2, disk_capacity_mb=300.0, max_streams=64,
            use_reported_stats=False,
        ),
        replay_table2=True,
        start_time=8 * 3600.0,
    ))
    sessions = result.service.sessions
    assert any(c.qos_violated for r in sessions for c in r.clusters)  # congested steps ran
    assert session_fingerprint(sessions) == (
        "3fb9fb459962924540813bdcf16b9dd1226e580ef8a25a1180ff24bc0fc707a2"
    )
    assert result.service.sim.events_fired == 1505
