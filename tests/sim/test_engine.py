"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_start_time(self):
        assert Simulator().now == 0.0
        assert Simulator(start_time=100.0).now == 100.0

    def test_schedule_fires_callback_at_delay(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(12.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [12.5]

    def test_callback_args_are_passed(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), "x", 2)
        sim.run()
        assert seen == [("x", 2)]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(float("nan"), lambda: None)

    def test_infinite_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(float("inf"), lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(2.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_schedule_at_non_finite_time_rejected(self, sim, bad):
        fired = []
        sim.schedule(3.0, fired.append, "ok")
        with pytest.raises(SchedulingError):
            sim.schedule_at(bad, fired.append, "poison")
        assert sim.pending_count == 1
        assert sim.run() == 3.0  # the clock is neither NaN nor parked at inf
        assert fired == ["ok"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_many_absolute_non_finite_time_is_atomic(self, sim, bad):
        fired = []
        with pytest.raises(SchedulingError):
            sim.schedule_many(
                [(1.0, fired.append, ("a",)), (bad, fired.append, ("poison",)),
                 (2.0, fired.append, ("b",))]
            )
        assert sim.pending_count == 0 and sim.heap_depth == 0
        assert sim.peek() is None
        # The refused batch consumed nothing: the next event is still first.
        assert sim.schedule(1.0, fired.append, "next").event.seq == 0
        assert sim.run() == 1.0
        assert fired == ["next"]

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]


class TestOrdering:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append(3))
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_same_time_events_fire_fifo(self, sim):
        order = []
        for i in range(10):
            sim.schedule(5.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_events_scheduled_from_callbacks_run(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.schedule(5.0, lambda: order.append("last"))
        sim.run()
        assert order == ["first", "nested", "last"]

    def test_clock_never_goes_backwards(self, sim):
        times = []
        for delay in (5.0, 1.0, 3.0, 1.0):
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=5.0)
        assert fired == [5]

    def test_run_advances_clock_to_until_when_drained(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_back_to_back_runs_compose(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(8.0, lambda: fired.append("b"))
        sim.run(until=5.0)
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_run_until_past_rejected(self, sim):
        sim.run(until=10.0)
        with pytest.raises(SchedulingError):
            sim.run(until=5.0)

    def test_stop_exits_loop(self, sim):
        fired = []

        def stopper():
            fired.append(1)
            sim.stop()

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_max_events_caps_execution(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_reentrant_run_rejected(self, sim):
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1

    def test_step_fires_single_event(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        event = sim.step()
        assert fired == [1]
        assert event is not None and event.time == 1.0

    def test_step_on_empty_heap_returns_none(self, sim):
        assert sim.step() is None

    def test_events_fired_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        assert handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_returns_false_after_firing(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert handle.fired
        assert not handle.cancel()

    def test_double_cancel_returns_false(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()

    def test_pending_reflects_lifecycle(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        sim.run()
        assert not handle.pending

    def test_peek_skips_cancelled(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0

    def test_pending_count_excludes_cancelled(self, sim):
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        handles[0].cancel()
        handles[2].cancel()
        assert sim.pending_count == 2
