"""Property: ``Simulator.run`` fires exactly what a loop of ``step()`` fires.

``run`` inlines the body of ``step`` (cancelled-top sweep, pop, clock and
counters, callback); ``step`` stays the plain reference.  A seeded program
mixing ``schedule`` / ``schedule_at`` / ``schedule_many`` / ``cancel`` /
``Process`` delays, signals and ``poke`` — issued up front and from inside
callbacks — is played on two simulators, one drained by ``run`` and one by
``peek`` + ``step``, and must leave the same ``(time, seq, name)`` trace,
clock, ``pending_count`` and ``events_fired`` after every phase.

Events are observed the way the perf ledger's tracer observes them: the
``schedule*`` methods are wrapped on the simulator *instance*, so the trace
only sees a ``Process`` wake-up if the process reaches ``sim.schedule``
through the instance at call time and passes ``name=`` as a keyword.

``Simulator.rearm`` gets a program of its own: schedule, re-arm (a fired
handle, often from inside its own callback) and cancel must fire the same
``(time, seq, name, args)`` trace through ``run`` and through ``step``, and
the same trace as the program with every re-arm spelled as a fresh
``schedule``; a refused re-arm leaves the heap as it was.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.process import Delay, Process, Signal, WaitSignal


class World:
    """One simulator plus the seeded program that feeds it."""

    def __init__(self, seed, stop_after, budget=120):
        self.sim = Simulator(start_time=100.0)
        self.rng = random.Random(seed)
        self.trace = []  # (time, seq, name) of every event fired
        self.handles = []
        self.processes = []
        self.signal = Signal("gate")
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
                trace.append((event.time, event.seq, event.name))
                if self.stop_after is not None and len(trace) == self.stop_after:
                    self.stopped = True
                    sim.stop()
                return callback(*args)

            return fire

        def wrap_single(original):
            def scheduler(when, callback, *args, name=""):
                box = []
                handle = original(when, observed(callback, box), *args, name=name)
                box.append(handle)
                handles.append(handle)
                return handle

            return scheduler

        schedule_many = sim.schedule_many

        def many(entries, *, absolute=False):
            boxes, rewritten = [], []
            for entry in entries:
                box = []
                boxes.append(box)
                rewritten.append((entry[0], observed(entry[1], box), *entry[2:]))
            made = schedule_many(rewritten, absolute=absolute)
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
        return self.rng.choice([0.0, 0.0, 1.0, 2.0, 2.0, 5.0, 7.5, 30.0])

    def act(self, _payload=None):
        """A callback body: perform a few random operations."""
        for _ in range(self.rng.randint(0, 3)):
            if self.budget <= 0:
                return
            self.budget -= 1
            self.operation()

    def operation(self):
        sim, rng = self.sim, self.rng
        kind = rng.choice(
            ["schedule", "schedule", "at", "many", "cancel", "cancel_top",
             "process", "poke", "trigger"]
        )
        if kind == "schedule":
            sim.schedule(self._delay(), self.act, name=self._name("tick"))
        elif kind == "at":
            sim.schedule_at(sim.now + self._delay(), self.act, None, name=self._name("at"))
        elif kind == "many":
            absolute = rng.random() < 0.5
            base = sim.now if absolute else 0.0
            sim.schedule_many(
                [(base + self._delay(), self.act, (), self._name("batch"))
                 for _ in range(rng.randint(1, 12))],
                absolute=absolute,
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
        elif kind == "trigger":
            self.signal.trigger(sim, "go")

    def body(self, steps):
        for _ in range(steps):
            if self.rng.random() < 0.25:
                yield WaitSignal(self.signal)
            else:
                yield Delay(self._delay())
            self.act()

    # -- the two ways to drain ------------------------------------------ #
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
        return (
            list(self.trace),
            self.sim.pending_count,
            self.sim.events_fired,
            [(h.pending, h.fired, h.cancelled) for h in self.handles],
            [(p.finished, p.result, repr(p.error)) for p in self.processes],
            self.signal.waiter_count,
        )


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
    by_run, by_step = World(seed, stop_after), World(seed, stop_after)
    for world in (by_run, by_step):
        for _ in range(12):
            world.operation()
        # Guarantee a cancelled carcass on the heap top at the first pop.
        pending = [h for h in world.handles if h.pending]
        if pending:
            min(pending, key=lambda h: h.event.key).cancel()
    assert by_run.state() == by_step.state()
    horizon = 100.0
    # Two full drains at the end: stop() can cut at most one of them short.
    for until, max_events in phases + [(None, None), (None, None)]:
        if until is not None:
            until = horizon = max(until, horizon)  # run() rejects a past horizon
        end_run = by_run.drain_by_run(until, max_events)
        end_step = by_step.drain_by_step(until, max_events)
        assert by_run.state() == by_step.state()
        assert end_run == end_step
        assert by_run.stopped == by_step.stopped
        if end_run != by_step.sim.now:
            # Only the horizon advance separates the clocks; line them up.
            by_step.sim.run(until=end_run, max_events=0)
        assert by_run.sim.now == by_step.sim.now
        horizon = max(horizon, by_run.sim.now)
    assert by_run.sim.pending_count == 0 == by_run.sim.heap_depth
    assert by_run.sim.events_fired == len(by_run.trace)
    assert by_run.trace == sorted(by_run.trace, key=lambda row: row[:2])
    # Every wake-up carries its family prefix (what the ledger's tracer
    # attributes callbacks by), passed as the ``name=`` keyword.
    assert {name.partition(":")[0] for _, _, name in by_run.trace} <= {
        "tick", "at", "batch", "start", "delay", "poke", "signal",
    }


class RearmWorld:
    """A seeded program over handle *slots*: each slot holds the latest
    handle of one recurring event.  ``fresh=True`` spells every re-arm as a
    new ``schedule`` of the same callback, args and name (the slot then
    holds the new handle), which is the reference ``rearm`` must match."""

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
        self.slots.append(
            self.sim.schedule(self._delay(), self.fire, slot, f"arg{slot}", name=f"ev:{slot}")
        )

    def rearm(self, slot, delay):
        handle = self.slots[slot]
        if self.fresh:
            self.slots[slot] = self.sim.schedule(
                delay, handle.callback, *handle.args, name=handle.name
            )
        else:
            assert self.sim.rearm(handle, delay) is handle
            assert handle.pending

    def fire(self, slot, tag):
        sim, handle = self.sim, self.slots[slot]
        assert handle.fired and handle.time == sim.now
        self.trace.append((handle.time, handle.seq, handle.name, (slot, tag)))
        if self.budget > 0 and self.rng.random() < 0.6:
            self.budget -= 1
            self.rearm(slot, self._delay())  # the handle that is firing
        for _ in range(self.rng.randint(0, 2)):
            if self.budget <= 0:
                return
            self.budget -= 1
            self.operation()

    def refuse(self, handle):
        """A re-arm that must raise and leave the simulator untouched."""
        sim = self.sim
        before = (sim.heap_depth, sim.pending_count, handle.pending, handle.cancelled)
        if handle.fired:  # a bad delay on a fired handle
            error, delay = SchedulingError, self.rng.choice([-1.0, math.inf, math.nan])
        else:  # any delay on a pending or cancelled handle
            error, delay = SimulationError, self._delay()
        with pytest.raises(error):
            sim.rearm(handle, delay)
        assert (sim.heap_depth, sim.pending_count, handle.pending, handle.cancelled) == before
        self.refusals += 1

    def operation(self):
        rng, slots = self.rng, self.slots
        kind = rng.choice(["add", "add", "rearm", "cancel", "refuse"])
        if kind == "add":
            self.add()
        elif kind == "rearm":
            fired = [slot for slot, handle in enumerate(slots) if handle.fired]
            if fired:
                self.rearm(rng.choice(fired), self._delay())
        elif slots:
            handle = slots[rng.randrange(len(slots))]
            if kind == "cancel":
                handle.cancel()
            else:
                self.refuse(handle)

    def drain(self, by_step):
        sim = self.sim
        if not by_step:
            sim.run()
            return
        while sim.peek() is not None:
            event = sim.step()
            # Built before the callback ran: a re-arm inside it moved the
            # handle, not the event step() reports.
            assert (event.time, event.seq, event.name, event.args) == self.trace[-1]


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_rearm_fires_like_a_fresh_schedule(seed):
    worlds = {}
    for fresh in (False, True):
        for by_step in (False, True):
            world = RearmWorld(seed, fresh)
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


def test_step_returns_the_event_that_fired_when_its_callback_rearms():
    sim = Simulator()
    handles = []

    def again(label):
        if sim.now < 3.0:
            sim.rearm(handles[0], 1.0)

    handles.append(sim.schedule(1.0, again, "x", name="poll"))
    events = []
    while sim.peek() is not None:
        events.append(sim.step())
    assert [(e.time, e.seq, e.name, e.args) for e in events] == [
        (1.0, 0, "poll", ("x",)), (2.0, 1, "poll", ("x",)), (3.0, 2, "poll", ("x",)),
    ]
    assert handles[0].fired and handles[0].seq == 2
    # A handle can be re-armed after its callback ran outside one, too.
    sim.rearm(handles[0], 0.5)
    assert handles[0].event.key == (3.5, 3) and sim.pending_count == 1
