"""The O(1) pending counter and the fused run loop of the simulator."""

import pytest

from repro.sim.engine import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A simulator whose ``schedule`` records every handle it returns.

    Wrapped on the instance, the way the perf ledger's tracer does: the
    engine keeps an instance ``__dict__`` and callers look ``schedule`` up
    on the instance at call time, so callbacks that reschedule are seen too.
    """
    sim = Simulator()
    sim.handles = []
    schedule = sim.schedule

    def recording_schedule(*args, **kwargs):
        handle = schedule(*args, **kwargs)
        sim.handles.append(handle)
        return handle

    sim.schedule = recording_schedule
    return sim


def heap_pending(sim: Simulator) -> int:
    """Reference count from the public surface: every handle ever returned
    that still reads pending (the heap holds these plus cancelled carcasses)."""
    pending = sum(1 for handle in sim.handles if handle.pending)
    assert pending <= sim.heap_depth <= len(sim.handles)
    return pending


class TestLivePendingCounter:
    def test_counter_tracks_schedule_cancel_fire(self, sim):
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_count == 5 == heap_pending(sim)
        handles[1].cancel()
        handles[3].cancel()
        assert sim.pending_count == 3 == heap_pending(sim)
        sim.step()
        assert sim.pending_count == 2 == heap_pending(sim)
        sim.run()
        assert sim.pending_count == 0 == heap_pending(sim)

    def test_double_cancel_decrements_once(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()
        assert sim.pending_count == 0

    def test_cancel_after_fire_does_not_decrement(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert not handle.cancel()
        assert sim.pending_count == 1

    def test_counter_survives_reschedule_from_callback(self, sim):
        def chain(depth):
            if depth:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(1.0, chain, 3)
        sim.run()
        assert sim.pending_count == 0 == heap_pending(sim)
        assert sim.events_fired == 4


class TestFusedRunLoop:
    def test_run_skips_cancelled_events(self, sim):
        fired = []
        keep = [sim.schedule(float(i), fired.append, i) for i in range(1, 6)]
        keep[0].cancel()
        keep[3].cancel()
        sim.run()
        assert fired == [2, 3, 5]

    def test_until_boundary_inclusive_and_clock_advances(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.schedule(3.0, fired.append, 3)
        end = sim.run(until=2.0)
        assert fired == [1, 2]
        assert end == 2.0
        end = sim.run(until=10.0)
        assert fired == [1, 2, 3]
        assert end == 10.0  # clock advanced past the drained heap

    def test_max_events_counts_only_fired(self, sim):
        fired = []
        cancelled = sim.schedule(0.5, fired.append, 0)
        for i in range(1, 5):
            sim.schedule(float(i), fired.append, i)
        cancelled.cancel()
        sim.run(max_events=2)
        assert fired == [1, 2]

    def test_stop_from_callback_halts_loop(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, 3)
        sim.run()
        assert fired == [1]
        assert sim.now == 2.0
        assert sim.pending_count == 1

    def test_events_scheduled_during_run_fire_in_order(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.5, lambda: fired.append("inserted"))

        sim.schedule(1.0, first)
        sim.schedule(2.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "inserted", "second"]
