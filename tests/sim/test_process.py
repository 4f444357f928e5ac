"""Unit tests for generator-based processes and signals."""

import pytest

from repro.client.requests import VideoRequest
from repro.core.session import StreamingSession
from repro.core.vra import VraDecision
from repro.errors import SchedulingError, SimulationError
from repro.network.flows import FlowManager
from repro.network.routing.paths import Path
from repro.sim.engine import Simulator
from repro.sim.process import Delay, Park, Process, Signal, WaitSignal
from repro.storage.video import VideoTitle


class TestProcessBasics:
    def test_process_runs_and_returns_result(self, sim):
        def body():
            yield Delay(5.0)
            return "done"

        process = Process(sim, body())
        sim.run()
        assert process.finished
        assert process.check() == "done"

    def test_delays_advance_simulated_time(self, sim):
        times = []

        def body():
            times.append(sim.now)
            yield Delay(3.0)
            times.append(sim.now)
            yield Delay(4.0)
            times.append(sim.now)

        Process(sim, body())
        sim.run()
        assert times == [0.0, 3.0, 7.0]

    def test_bare_numbers_act_as_delays(self, sim):
        times = []

        def body():
            yield 2.5
            times.append(sim.now)
            yield 1
            times.append(sim.now)

        Process(sim, body())
        sim.run()
        assert times == [2.5, 3.5]

    def test_construction_does_not_run_body_synchronously(self, sim):
        ran = []

        def body():
            ran.append(True)
            yield Delay(1.0)

        Process(sim, body())
        assert ran == []
        sim.run()
        assert ran == [True]

    def test_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            Process(sim, lambda: None)  # type: ignore[arg-type]

    def test_exception_captured_and_reraised_by_check(self, sim):
        def body():
            yield Delay(1.0)
            raise ValueError("boom")

        process = Process(sim, body())
        sim.run()  # engine survives
        assert process.finished
        with pytest.raises(ValueError, match="boom"):
            process.check()

    def test_unsupported_yield_value_errors_process(self, sim):
        def body():
            yield "not a delay"

        process = Process(sim, body())
        sim.run()
        assert process.finished
        with pytest.raises(SimulationError):
            process.check()

    @pytest.mark.parametrize(
        "bad", [Delay(-1.0), Delay(float("nan")), Delay(float("inf")), -2, -0.5]
    )
    def test_bad_delay_errors_the_process_not_the_run(self, sim, bad):
        log = []

        def faulty():
            yield Delay(1.0)
            try:
                yield bad
            finally:
                log.append(("faulty closed", sim.now))
            log.append("unreachable")

        def healthy():
            for _ in range(3):
                yield Delay(2.0)
            log.append(("healthy done", sim.now))
            return "ok"

        bad_process = Process(sim, faulty())
        good_process = Process(sim, healthy())
        sim.run()  # must not raise: the other processes complete
        assert log == [("faulty closed", 1.0), ("healthy done", 6.0)]
        assert bad_process.finished and good_process.check() == "ok"
        with pytest.raises(SchedulingError):
            bad_process.check()
        assert bad_process.finished_signal.trigger_count == 1
        assert sim.pending_count == 0 and sim.now == 6.0

    def test_two_processes_interleave(self, sim):
        log = []

        def worker(name, gap):
            for _ in range(3):
                yield Delay(gap)
                log.append((name, sim.now))

        Process(sim, worker("fast", 1.0))
        Process(sim, worker("slow", 2.5))
        sim.run()
        assert log == [
            ("fast", 1.0),
            ("fast", 2.0),
            ("slow", 2.5),
            ("fast", 3.0),
            ("slow", 5.0),
            ("slow", 7.5),
        ]


class TestInterrupt:
    def test_interrupt_stops_future_work(self, sim):
        log = []

        def body():
            yield Delay(5.0)
            log.append("never")

        process = Process(sim, body())
        sim.run(until=1.0)
        assert process.interrupt()
        sim.run()
        assert log == []
        assert process.finished

    def test_interrupt_after_finish_returns_false(self, sim):
        def body():
            yield Delay(1.0)

        process = Process(sim, body())
        sim.run()
        assert not process.interrupt()


class Countdown(Park):
    """A parked object that ticks ``steps`` times on the engine by itself
    and then resumes the process with the number of ticks it took."""

    def __init__(self, sim, steps, gap=1.0):
        self.sim, self.steps, self.gap = sim, steps, gap
        self.ticks = 0
        self.process = None

    def _park(self, process):
        self.process = process
        self._arm()

    def _arm(self):
        process = self.process
        try:
            process._pending_handle = self.sim.schedule(
                self.gap, self._tick, name=process._delay_name
            )
        except SchedulingError as exc:
            process._fail(exc)

    def _tick(self):
        self.ticks += 1
        if self.ticks >= self.steps:
            self.process._resume(self.ticks)
        else:
            self._arm()


class TestPark:
    def test_parked_object_ticks_without_waking_the_generator(self, sim):
        wakes = []

        def body():
            taken = yield Countdown(sim, steps=4)
            wakes.append((taken, sim.now))
            return taken

        process = Process(sim, body(), name="p")
        names = []
        while (event := sim.step()) is not None:
            names.append(event.name)
        assert wakes == [(4, 4.0)]  # one wake-up for four engine events
        assert names == ["start:p"] + ["delay:p"] * 4
        assert process.check() == 4

    def test_interrupt_while_parked_cancels_the_tick_and_runs_finally(self, sim):
        log = []
        countdown = Countdown(sim, steps=10)

        def body():
            try:
                yield countdown
            finally:
                log.append(("closed", sim.now))

        process = Process(sim, body())
        sim.run(until=2.5)
        assert countdown.ticks == 2
        assert process.interrupt()
        sim.run()
        assert log == [("closed", 2.5)]
        assert countdown.ticks == 2 and sim.pending_count == 0

    def test_poke_while_parked_cancels_the_tick_and_wakes_the_generator(self, sim):
        countdown = Countdown(sim, steps=10)
        woken = []

        def body():
            woken.append(((yield countdown), sim.now))

        process = Process(sim, body())
        sim.run(until=2.5)
        assert process.poke("early")
        sim.run()
        assert woken == [("early", 2.5)]
        assert countdown.ticks == 2 and process.finished

    @pytest.mark.parametrize("gap", [float("nan"), -1.0])
    def test_bad_tick_delay_fails_the_process_not_the_loop(self, sim, gap):
        log = []
        countdown = Countdown(sim, steps=3)

        def faulty():
            try:
                yield countdown
            finally:
                log.append("closed")

        def healthy():
            yield Delay(5.0)
            return "ok"

        bad = Process(sim, faulty())
        good = Process(sim, healthy())
        sim.run(until=1.5)  # one good tick, then the delay goes bad
        countdown.gap = gap
        sim.run()
        assert log == ["closed"] and good.check() == "ok"
        with pytest.raises(SchedulingError):
            bad.check()

    def test_finished_process_ignores_a_late_resume(self, sim):
        def body():
            return (yield Countdown(sim, steps=1))

        process = Process(sim, body())
        sim.run()
        assert process.check() == 1
        triggers = process.finished_signal.trigger_count
        process._resume("late")
        assert process.check() == 1
        assert process.finished_signal.trigger_count == triggers

    def test_wait_signal_is_a_park(self, sim):
        assert isinstance(WaitSignal(Signal("s")), Park)

    def test_object_without_the_protocol_is_still_unsupported(self, sim):
        class LooksParked:
            def _park(self, process):  # not a Park: never called
                raise AssertionError

        def body():
            yield LooksParked()

        process = Process(sim, body())
        sim.run()
        with pytest.raises(SimulationError, match="unsupported"):
            process.check()


class SlotServer:
    def __init__(self):
        self.active_streams = 0

    def begin_serving(self, title_id):
        self.active_streams += 1
        return self.active_streams

    def end_serving(self, lease):
        self.active_streams -= 1


class TestParkedTransfer:
    """The park a streaming session yields: its cluster transfer."""

    def start(self, sim, line, nodes=("A", "B"), **session_args):
        flows = FlowManager(line)
        servers = {uid: SlotServer() for uid in nodes}
        decision = VraDecision(
            title_id="v", home_uid=nodes[0], chosen_uid=nodes[-1],
            served_locally=len(nodes) == 1, path=Path(nodes=tuple(nodes), cost=0.1),
        )
        session = StreamingSession(
            sim=sim,
            request=VideoRequest(client_id="c", home_uid="A", title_id="v", submitted_at=0.0),
            video=VideoTitle("v", size_mb=100.0, duration_s=800.0),  # 1 Mbps
            cluster_mb=25.0, decide=lambda: decision, flows=flows, servers=servers,
            **session_args,
        )
        return Process(sim, session.run(), name="s"), session, flows, servers

    def test_interrupt_mid_step_releases_the_flow_and_the_lease(self, sim, line):
        process, session, flows, servers = self.start(sim, line)
        sim.run(until=90.0)  # second 60 s step of cluster 0 is in flight
        link = line.link_between("A", "B")
        assert flows.active_count == 1 and link.reserved_mbps == 1.0
        assert servers["B"].active_streams == 1
        assert process.interrupt()
        assert flows.active_count == 0 and link.reserved_mbps == 0.0
        assert servers["B"].active_streams == 0
        fired = sim.events_fired
        sim.run()
        assert sim.events_fired == fired  # the tick was cancelled
        assert session.record.clusters == []

    @pytest.mark.parametrize("read_mbps", [float("nan"), -5.0])
    def test_bad_step_fails_that_session_only_and_releases(self, sim, line, read_mbps):
        # A home-server serve at a NaN / negative disk rate: the first
        # step's delay is one the engine refuses.
        bad, bad_session, _, bad_servers = self.start(
            sim, line, nodes=("A",), local_read_mbps=read_mbps
        )
        good, good_session, flows, servers = self.start(sim, line)
        sim.run()
        with pytest.raises(SchedulingError):
            bad.check()
        assert bad_servers["A"].active_streams == 0
        assert bad_session.record.clusters == []
        assert good.check() is good_session.record and good_session.record.completed
        assert flows.active_count == 0 and servers["B"].active_streams == 0


class TestSignals:
    def test_signal_wakes_waiter_with_payload(self, sim):
        received = []

        def waiter():
            payload = yield WaitSignal(signal)
            received.append((sim.now, payload))

        signal = Signal("data")
        Process(sim, waiter())
        sim.schedule(4.0, lambda: signal.trigger(sim, "hello"))
        sim.run()
        assert received == [(4.0, "hello")]

    def test_signal_wakes_all_waiters(self, sim):
        woken = []

        def waiter(name):
            yield WaitSignal(signal)
            woken.append(name)

        signal = Signal()
        for name in ("a", "b", "c"):
            Process(sim, waiter(name))
        sim.schedule(1.0, lambda: signal.trigger(sim))
        sim.run()
        assert sorted(woken) == ["a", "b", "c"]

    def test_trigger_with_no_waiters_returns_zero(self, sim):
        signal = Signal()
        assert signal.trigger(sim) == 0
        assert signal.trigger_count == 1

    def test_finished_signal_fires_on_completion(self, sim):
        results = []

        def body():
            yield Delay(2.0)
            return 42

        def watcher():
            finished_process = yield WaitSignal(process.finished_signal)
            results.append(finished_process.result)

        process = Process(sim, body())
        Process(sim, watcher())
        sim.run()
        assert results == [42]

    def test_waiter_count_tracks_registrations(self, sim):
        signal = Signal()

        def waiter():
            yield WaitSignal(signal)

        Process(sim, waiter())
        Process(sim, waiter())
        sim.run(until=0.0)  # let both park
        assert signal.waiter_count == 2
        signal.trigger(sim)
        assert signal.waiter_count == 0
