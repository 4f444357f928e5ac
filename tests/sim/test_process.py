"""Unit tests for generator-based processes and signals."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.process import Delay, Process, Signal, WaitSignal


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
