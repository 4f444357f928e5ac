"""Property: ``Simulator.run`` fires exactly what a loop of ``step()`` fires,
and both fire what a one-heap reference engine fires.

``run`` inlines the body of ``step`` (cancelled-top sweep, pop, clock and
counters, callback, the re-arm of a stepping handle); ``step`` stays the
plain reference.  The engine keeps two queues, a heap and a FIFO lane for
re-arms that keep it sorted; :class:`tests.reference.engine.OneHeapSimulator`
keeps every event on one heap.  A seeded program mixing ``schedule`` /
``schedule_at`` / ``schedule_many`` / ``cancel`` (of lane and heap entries,
enough to compact) / ``Process`` delays and ``poke`` / stepping handles
that return the lane's delay, a shorter one, 0.0 or None — issued up front
and from inside callbacks — is played on three simulators, one drained by
``run``, one by ``peek`` + ``step`` and the reference, and must leave the
same ``(time, seq, name)`` trace, clock, ``pending_count``, ``heap_depth``,
``compactions`` and ``events_fired`` after every phase.

Events are observed the way the perf ledger's tracer observes them: the
``schedule*`` methods are wrapped on the simulator *instance*, so the trace
only sees a ``Process`` wake-up if the process reaches ``sim.schedule``
through the instance at call time and passes ``name=`` as a keyword.

Stepping handles get a program of their own: a step (its callback returns
the next delay) must fire the same ``(time, seq, name, args)`` trace through
``run`` and through ``step`` as the program with every step spelled as a
fresh ``schedule`` made at the end of the callback.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.sim.engine import Simulator
from repro.sim.process import Delay, Process
from tests.reference.engine import OneHeapSimulator

#: What most stepping handles return: from a monotone clock, one delay
#: keeps its re-arms in ``(time, seq)`` order, so they ride the lane.
QUANTUM = 30.0


class World:
    """One simulator plus the seeded program that feeds it."""

    def __init__(self, seed, stop_after, budget=120, engine=Simulator):
        self.sim = engine(start_time=100.0)
        self.rng = random.Random(seed)
        self.trace = []  # (time, seq, name) of every event fired
        self.handles = []
        self.processes = []
        self.stopped = False
        self.stop_after = stop_after
        self.budget = budget  # operations left: bounds the program
        self.serial = 0
        self._observe()

    def _observe(self):
        sim, trace, handles = self.sim, self.trace, self.handles

        def observed(callback, box):
            def fire(*args):
                event = box[0].event
                assert sim.now == event.time
                assert not box[0].pending  # a stepping handle too, until it returns
                trace.append((event.time, event.seq, event.name))
                if self.stop_after is not None and len(trace) == self.stop_after:
                    self.stopped = True
                    sim.stop()
                return callback(*args)

            return fire

        def wrap_single(original):
            def scheduler(when, callback, *args, name="", **options):
                box = []
                handle = original(when, observed(callback, box), *args, name=name, **options)
                box.append(handle)
                handles.append(handle)
                return handle

            return scheduler

        schedule_many = sim.schedule_many

        def many(entries):
            boxes, rewritten = [], []
            for entry in entries:
                box = []
                boxes.append(box)
                rewritten.append((entry[0], observed(entry[1], box), *entry[2:]))
            made = schedule_many(rewritten)
            for box, handle in zip(boxes, made):
                box.append(handle)
            handles.extend(made)
            return made

        sim.schedule = wrap_single(sim.schedule)
        sim.schedule_at = wrap_single(sim.schedule_at)
        sim.schedule_many = many

    # -- the program ---------------------------------------------------- #
    def _name(self, family):
        self.serial += 1
        return f"{family}:{self.serial}"

    def _delay(self):
        # Coarse delays force ties, so the seq tie-break is exercised.
        return self.rng.choice([0.0, 0.0, 1.0, 2.0, 2.0, 5.0, 7.5, QUANTUM])

    def act(self, _payload=None):
        """A callback body: perform a few random operations."""
        for _ in range(self.rng.randint(0, 3)):
            if self.budget <= 0:
                return
            self.budget -= 1
            self.operation()

    def step(self, steps_left):
        """A stepping handle's callback: act, then the next step or None."""
        self.act()
        if steps_left[0] <= 0:
            return None
        steps_left[0] -= 1
        return self.rng.choice([QUANTUM, QUANTUM, QUANTUM, 7.5, 2.0, 0.0])

    def operation(self):
        sim, rng = self.sim, self.rng
        kind = rng.choice(
            ["schedule", "schedule", "at", "many", "cancel", "cancel_top",
             "process", "poke", "stepping", "stepping", "flood", "purge"]
        )
        if kind == "schedule":
            sim.schedule(self._delay(), self.act, name=self._name("tick"))
        elif kind == "at":
            sim.schedule_at(sim.now + self._delay(), self.act, None, name=self._name("at"))
        elif kind == "many":
            sim.schedule_many(
                [(sim.now + self._delay(), self.act, (), self._name("batch"))
                 for _ in range(rng.randint(1, 12))]
            )
        elif kind == "cancel":
            if self.handles:
                rng.choice(self.handles).cancel()
        elif kind == "cancel_top":
            pending = [h for h in self.handles if h.pending]
            if pending:
                min(pending, key=lambda h: h.event.key).cancel()
        elif kind == "process":
            self.processes.append(
                Process(sim, self.body(rng.randint(1, 4)), name=self._name("proc"))
            )
        elif kind == "poke":
            if self.processes:
                rng.choice(self.processes).poke("poked")
        elif kind == "stepping":
            sim.schedule(
                self._delay(), self.step, [rng.randint(0, 8)], name=self._name("step"),
                stepping=True,
            )
        elif kind == "flood":  # enough events for the depth to pass COMPACTION_FLOOR
            sim.schedule_many(
                [(sim.now + self._delay(), self.act, (), self._name("batch"))
                 for _ in range(rng.randint(20, 60))]
            )
        else:  # purge: most of what is pending, lane entries included
            for handle in self.handles:
                if handle.pending and rng.random() < 0.7:
                    handle.cancel()

    def body(self, steps):
        for _ in range(steps):
            yield Delay(self._delay())
            self.act()

    # -- the three ways to drain ---------------------------------------- #
    def drain_by_run(self, until, max_events):
        self.stopped = False
        return self.sim.run(until=until, max_events=max_events)

    def drain_by_step(self, until, max_events):
        """``run``'s documented contract, spelled with peek() and step()."""
        sim = self.sim
        self.stopped = False
        fired = 0
        while not self.stopped:
            upcoming = sim.peek()
            if upcoming is None:
                break
            if until is not None and upcoming > until:
                break
            if max_events is not None and fired >= max_events:
                break
            event = sim.step()
            # Nothing fires inside a callback: the returned event is the
            # row its own callback just logged.
            assert (event.time, event.seq, event.name) == self.trace[-1]
            fired += 1
        if until is not None and sim.now < until and not self.stopped:
            return until  # run() advances the clock to the horizon
        return sim.now

    def state(self):
        sim = self.sim
        return (
            list(self.trace),
            sim.pending_count,
            sim.events_fired,
            sim.heap_depth,
            sim.compactions,
            [(h.pending, h.fired, h.cancelled) for h in self.handles],
            [(p.finished, p.result, repr(p.error)) for p in self.processes],
        )


def seeded_worlds(seed, stop_after):
    """The same program for ``run``, for ``step`` and for the reference."""
    worlds = [World(seed, stop_after), World(seed, stop_after),
              World(seed, stop_after, engine=OneHeapSimulator)]
    for world in worlds:
        for _ in range(12):
            world.operation()
        # Guarantee a cancelled carcass on the global top at the first pop.
        pending = [h for h in world.handles if h.pending]
        if pending:
            min(pending, key=lambda h: h.event.key).cancel()
    return worlds


def play(worlds, phases):
    """Drain the three worlds phase by phase, comparing after each."""
    by_run, by_step, reference = worlds
    assert by_run.state() == by_step.state() == reference.state()
    horizon = 100.0
    # Two full drains at the end: stop() can cut at most one of them short.
    for until, max_events in phases + [(None, None), (None, None)]:
        if until is not None:
            until = horizon = max(until, horizon)  # run() rejects a past horizon
        end_run = by_run.drain_by_run(until, max_events)
        end_step = by_step.drain_by_step(until, max_events)
        end_reference = reference.drain_by_run(until, max_events)
        assert by_run.state() == by_step.state() == reference.state()
        assert end_run == end_step == end_reference
        assert by_run.stopped == by_step.stopped == reference.stopped
        if end_run != by_step.sim.now:
            # Only the horizon advance separates the clocks; line them up.
            by_step.sim.run(until=end_run, max_events=0)
        assert by_run.sim.now == by_step.sim.now == reference.sim.now
        horizon = max(horizon, by_run.sim.now)


phases = st.lists(
    st.tuples(
        st.none() | st.sampled_from([100.0, 101.0, 102.0, 107.5, 130.0, 400.0]),
        st.none() | st.integers(min_value=0, max_value=40),
    ),
    min_size=1,
    max_size=4,
)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    stop_after=st.none() | st.integers(min_value=1, max_value=60),
    phases=phases,
)
@settings(max_examples=200, deadline=None)
def test_run_is_a_loop_of_step(seed, stop_after, phases):
    worlds = seeded_worlds(seed, stop_after)
    play(worlds, phases)
    by_run = worlds[0]
    assert by_run.sim.pending_count == 0 == by_run.sim.heap_depth
    assert by_run.sim.events_fired == len(by_run.trace)
    assert by_run.trace == sorted(by_run.trace, key=lambda row: row[:2])
    # Every wake-up carries its family prefix (what the ledger's tracer
    # attributes callbacks by), passed as the ``name=`` keyword.
    assert {name.partition(":")[0] for _, _, name in by_run.trace} <= {
        "tick", "at", "batch", "start", "delay", "poke", "step",
    }


def test_the_programs_reach_both_queues_and_compact():
    """The property's programs do what it claims to test: steps re-armed
    onto the lane and onto the heap, lane entries cancelled, compactions."""
    seen = {"lane re-arm": 0, "heap re-arm": 0, "lane carcass": 0, "compaction": 0}
    for seed in range(40):
        world = World(seed, None)
        sim = world.sim
        for _ in range(12):
            world.operation()
        while sim.peek() is not None:
            fired = {handle.name: handle for handle in world.handles}[sim.step().name]
            lane = [handle for _, _, handle in sim._lane]
            if fired._stepping and fired.pending:
                seen["lane re-arm" if fired in lane else "heap re-arm"] += 1
            seen["lane carcass"] += sum(handle.cancelled for handle in lane)
        seen["compaction"] += sim.compactions
    assert all(seen.values()), seen


class StepWorld:
    """A seeded program over handle *slots*: each slot holds the latest
    handle of one recurring event.  ``fresh=True`` spells every step as a
    new ``schedule`` of the same callback, args and name at the end of the
    callback (the slot then holds the new handle), which is the reference
    a stepping handle must match."""

    def __init__(self, seed, fresh, budget=150):
        self.sim = Simulator(start_time=50.0)
        self.rng = random.Random(seed)
        self.fresh = fresh
        self.budget = budget
        self.slots = []
        self.trace = []  # (time, seq, name, args) of every event fired
        self.refusals = 0

    def _delay(self):
        return self.rng.choice([0.0, 0.0, 1.0, 2.0, 2.0, 5.0, 60.0])

    def add(self):
        slot = len(self.slots)
        self.slots.append(self.sim.schedule(
            self._delay(), self.fire, slot, f"arg{slot}", name=f"ev:{slot}",
            stepping=not self.fresh,
        ))

    def fire(self, slot, tag):
        sim, handle = self.sim, self.slots[slot]
        assert handle.fired and not handle.pending and handle.time == sim.now
        self.trace.append((handle.time, handle.seq, handle.name, (slot, tag)))
        delay = None
        if self.budget > 0 and self.rng.random() < 0.6:
            self.budget -= 1
            delay = self._delay()
        for _ in range(self.rng.randint(0, 2)):
            if self.budget <= 0:
                break
            self.budget -= 1
            self.operation()
        if self.fresh and delay is not None:
            self.slots[slot] = sim.schedule(delay, handle.callback, *handle.args, name=handle.name)
            return None
        return delay

    def refuse(self):
        """A stepping schedule with a bad delay: it raises, nothing moves."""
        sim = self.sim
        before = (sim.heap_depth, sim.pending_count, len(self.slots))
        with pytest.raises(SchedulingError):
            sim.schedule(self.rng.choice([-1.0, math.inf, math.nan]), self.fire, 0, "x",
                         stepping=not self.fresh)
        assert (sim.heap_depth, sim.pending_count, len(self.slots)) == before
        self.refusals += 1

    def operation(self):
        rng, slots = self.rng, self.slots
        kind = rng.choice(["add", "add", "cancel", "refuse"])
        if kind == "add":
            self.add()
        elif kind == "refuse":
            self.refuse()
        elif slots:
            slots[rng.randrange(len(slots))].cancel()

    def drain(self, by_step):
        sim = self.sim
        if not by_step:
            sim.run()
            return
        while sim.peek() is not None:
            event = sim.step()
            # Built before the callback ran: the step that followed moved
            # the handle, not the event step() reports.
            assert (event.time, event.seq, event.name, event.args) == self.trace[-1]


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_rearm_fires_like_a_fresh_schedule(seed):
    worlds = {}
    for fresh in (False, True):
        for by_step in (False, True):
            world = StepWorld(seed, fresh)
            for _ in range(10):
                world.operation()
            world.drain(by_step)
            worlds[fresh, by_step] = world
    reference = worlds[True, True]
    for world in worlds.values():
        assert world.trace == reference.trace
        assert world.refusals == reference.refusals
        assert world.sim.events_fired == len(world.trace)
        assert world.sim.pending_count == 0 == world.sim.heap_depth
        assert world.sim.now == reference.sim.now
    assert reference.trace == sorted(reference.trace, key=lambda row: row[:2])


def test_step_returns_the_event_that_fired_when_its_callback_returns_a_step():
    sim = Simulator()
    handles = []

    def again(label):
        assert handles[0].fired and not handles[0].pending
        return 1.0 if sim.now < 3.0 else None

    handles.append(sim.schedule(1.0, again, "x", name="poll", stepping=True))
    events = []
    while sim.peek() is not None:
        events.append(sim.step())
    # Each re-arm takes a fresh seq, as a fresh schedule would.
    assert [(e.time, e.seq, e.name, e.args) for e in events] == [
        (1.0, 0, "poll", ("x",)), (2.0, 1, "poll", ("x",)), (3.0, 2, "poll", ("x",)),
    ]
    assert handles[0].fired and handles[0].seq == 2 and sim.pending_count == 0
