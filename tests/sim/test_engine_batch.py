"""Engine batching: schedule_many, event keys, heap compaction."""

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import COMPACTION_FLOOR, Simulator
from repro.sim.events import Event


class TestEventKey:
    def test_key_precomputed_at_construction(self):
        event = Event(time=4.0, seq=7, callback=lambda: None)
        assert event.key == (4.0, 7)

    def test_key_survives_frozen_dataclass(self):
        event = Event(time=1.0, seq=0, callback=lambda: None)
        for field, value in (("time", 2.0), ("seq", 9), ("key", (2.0, 9))):
            with pytest.raises(AttributeError):
                setattr(event, field, value)
        assert event.key == (1.0, 0)

    def test_engine_orders_by_the_key_of_the_event_it_returns(self):
        sim = Simulator(start_time=2.0)
        late = sim.schedule(1.0, lambda: None)
        early = sim.schedule_at(2.5, lambda: None)
        tied = sim.schedule(0.5, lambda: None)
        assert [h.event.key for h in (late, early, tied)] == [(3.0, 0), (2.5, 1), (2.5, 2)]
        assert [sim.step().key for _ in range(3)] == [(2.5, 1), (2.5, 2), (3.0, 0)]


class TestScheduleMany:
    def test_batch_fires_in_same_order_as_sequential(self):
        batched, sequential = [], []
        sim_a, sim_b = Simulator(), Simulator()
        entries = [(3.0, batched.append, (3,)), (1.0, batched.append, (1,)),
                   (2.0, batched.append, (2,)), (1.0, batched.append, (10,))]
        sim_a.schedule_many(entries)
        for time, _cb, args in entries:
            sim_b.schedule_at(time, sequential.append, *args)
        sim_a.run()
        sim_b.run()
        assert batched == sequential == [1, 10, 2, 3]

    def test_absolute_times(self):
        sim = Simulator(start_time=100.0)
        fired = []
        sim.schedule_many(
            [(150.0, fired.append, (1,)), (120.0, fired.append, (2,))]
        )
        sim.run()
        assert fired == [2, 1]
        assert sim.now == 150.0

    def test_interleaves_with_existing_heap(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "push")
        sim.schedule_many([(1.0, fired.append, ("early",)), (3.0, fired.append, ("late",))])
        sim.run()
        assert fired == ["early", "push", "late"]

    def test_returns_cancellable_handles_in_entry_order(self):
        sim = Simulator()
        fired = []
        handles = sim.schedule_many([(1.0, fired.append, (1,)), (2.0, fired.append, (2,))])
        assert [h.event.args for h in handles] == [(1,), (2,)]
        handles[0].cancel()
        sim.run()
        assert fired == [2]

    def test_pending_count_tracks_batch(self):
        sim = Simulator()
        sim.schedule_many([(float(i), lambda: None) for i in range(10)])
        assert sim.pending_count == 10

    def test_invalid_entry_leaves_heap_untouched(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule_many([(1.0, lambda: None), (-5.0, lambda: None)])
        assert sim.pending_count == 0
        assert sim.heap_depth == 0

    def test_empty_batch(self):
        sim = Simulator()
        assert sim.schedule_many([]) == []

    def test_past_absolute_time_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SchedulingError):
            sim.schedule_many([(5.0, lambda: None)])


class TestCompaction:
    def fill(self, sim, count, spacing=1.0):
        return sim.schedule_many(
            [(spacing * (i + 1), lambda: None) for i in range(count)]
        )

    def test_compaction_triggers_when_carcasses_outnumber_pending(self):
        sim = Simulator()
        handles = self.fill(sim, 2 * COMPACTION_FLOOR)
        for handle in handles[: COMPACTION_FLOOR + 1]:
            handle.cancel()
        assert sim.compactions == 1
        assert sim.heap_depth == sim.pending_count == COMPACTION_FLOOR - 1

    def test_heap_order_and_pending_count_survive_compaction(self):
        sim = Simulator()
        fired = []
        handles = sim.schedule_many(
            [(float(i + 1), fired.append, (i,)) for i in range(2 * COMPACTION_FLOOR)]
        )
        survivors = [i for i in range(2 * COMPACTION_FLOOR) if i % 3 == 0]
        for i, handle in enumerate(handles):
            if i % 3 != 0:
                handle.cancel()
        assert sim.compactions >= 1
        assert sim.pending_count == len(survivors)
        sim.run()
        assert fired == survivors
        assert sim.pending_count == 0

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        handles = self.fill(sim, COMPACTION_FLOOR - 2)
        for handle in handles:
            handle.cancel()
        assert sim.compactions == 0
        assert sim.heap_depth == COMPACTION_FLOOR - 2  # swept lazily instead

    def test_compaction_during_run_keeps_loop_coherent(self):
        sim = Simulator()
        fired = []
        late = sim.schedule_many(
            [(100.0 + i, fired.append, (f"late{i}",)) for i in range(2 * COMPACTION_FLOOR)]
        )

        def cancel_most():
            for handle in late[: COMPACTION_FLOOR + 10]:
                handle.cancel()
            fired.append("cancelled")

        sim.schedule(1.0, cancel_most)
        sim.run()
        assert sim.compactions >= 1
        assert fired[0] == "cancelled"
        assert fired[1:] == [f"late{i}" for i in range(COMPACTION_FLOOR + 10, 2 * COMPACTION_FLOOR)]

    def test_on_compaction_hook_fires(self):
        sim = Simulator()
        ticks = []
        sim.on_compaction = lambda: ticks.append(1)
        handles = self.fill(sim, 2 * COMPACTION_FLOOR)
        for handle in handles:
            handle.cancel()
        assert len(ticks) == sim.compactions >= 1
