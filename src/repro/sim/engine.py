"""The discrete-event simulation engine.

:class:`Simulator` maintains a binary heap of scheduled events (each one
an :class:`EventHandle`) and a simulated clock.  Everything in the
reproduction — SNMP collector periods, video cluster transfer completions,
client arrivals — is driven by this one loop, which keeps runs fully
deterministic for a given seed and schedule.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import Event

#: Heaps smaller than this are never compacted: sweeping a few dozen
#: entries off the top lazily is cheaper than any rebuild.
COMPACTION_FLOOR = 64

_INF = float("inf")

#: One heap entry: ``(time, seq, handle)``.  The first two fields are the
#: total order; ``seq`` is unique, so a comparison never reaches the handle.
HeapEntry = Tuple[float, int, "EventHandle"]


def _bad_delay(delay: Any) -> SchedulingError:
    if delay == _INF:
        return SchedulingError("delay must be finite")
    return SchedulingError(f"delay must be non-negative and finite, got {delay!r}")


class EventHandle:
    """A scheduled event, as :meth:`Simulator.schedule` returns it.

    The handle *is* the event (``time, seq, callback, args, name``);
    :attr:`event` builds the immutable :class:`Event` value on demand, and
    :meth:`Simulator.rearm` pushes a fired handle again.  Cancelling is
    O(1): the handle is flagged and the engine discards the event when it
    reaches the top of the heap.
    """

    __slots__ = ("time", "seq", "callback", "args", "name", "_cancelled", "_fired", "_sim")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: Tuple[Any, ...], name: str, sim: "Simulator"):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.name = name
        self._cancelled = False
        self._fired = False
        self._sim = sim

    @property
    def event(self) -> Event:
        """The event as it stands: its current ``(time, seq)`` and callback."""
        return Event(self.time, self.seq, self.callback, self.args, self.name)

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the event's callback has run (and it was not re-armed)."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting in the heap."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> bool:
        """Prevent the event from firing.

        Returns:
            True if the event was pending and is now cancelled; False if it
            had already fired or was already cancelled.
        """
        if not self.pending:
            return False
        self._cancelled = True
        self._sim._note_cancel()
        return True


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, my_callback, arg1)
        sim.run(until=100.0)

    Time units are seconds by convention throughout the library (the GRNET
    case study expresses times of day as seconds since midnight).
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[HeapEntry] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_fired = 0
        self._pending = 0
        self._compactions = 0
        #: Optional callback invoked after each cancelled-carcass heap
        #: compaction; the service wires this to the
        #: ``engine.heap_compactions`` telemetry counter.
        self.on_compaction: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (diagnostic)."""
        return self._events_fired

    @property
    def pending_count(self) -> int:
        """Number of pending (scheduled, not cancelled, not fired) events.

        Maintained as a live counter updated on schedule/cancel/fire, so
        reading it is O(1) rather than a scan of the heap.
        """
        return self._pending

    @property
    def heap_depth(self) -> int:
        """Raw heap length, cancelled carcasses included.

        Telemetry gauge: ``heap_depth - pending_count`` is the number of
        cancelled events still waiting to be swept off the heap, which is
        the engine's memory overhead from cancellation-heavy workloads.
        """
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """Cancelled-carcass heap compactions performed (diagnostic).

        The engine rebuilds the heap whenever carcasses outnumber pending
        events (above :data:`COMPACTION_FLOOR`), so cancellation-heavy
        retry/requeue workloads hold O(pending) memory instead of growing
        the heap until the carcasses happen to reach the top.
        """
        return self._compactions

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` from now.

        Args:
            delay: Non-negative offset from the current simulated time.
            callback: Callable invoked when the event fires.
            *args: Positional arguments stored with the event.
            name: Optional label used in error messages and traces.

        Returns:
            The event's handle; once fired, :meth:`rearm` can push it again.

        Raises:
            SchedulingError: If ``delay`` is negative or not finite.
        """
        if not (0.0 <= delay < _INF):  # also rejects NaN
            raise _bad_delay(delay)
        return self._push(self._now + float(delay), callback, args, name)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time.

        Raises:
            SchedulingError: If ``time`` is before the current time or not
                finite (NaN would fire first and become the clock; ``inf``
                would park the clock at infinity).
        """
        if not (self._now <= time < _INF):  # also rejects NaN
            raise self._bad_time(time, name or callback)
        return self._push(float(time), callback, args, name)

    def _push(
        self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...], name: str
    ) -> EventHandle:
        """Put one validated event on the heap."""
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, name, self)
        heappush(self._heap, (time, seq, handle))
        self._pending += 1
        return handle

    def rearm(self, handle: EventHandle, delay: float) -> EventHandle:
        """Push a *fired* handle again, to fire ``delay`` from now, with a
        fresh ``seq`` from :meth:`schedule`'s counter: the firing order of a
        fresh ``schedule`` of the same callback, without a new handle.

        Raises:
            SchedulingError: If ``delay`` is negative or not finite.
            SimulationError: If the handle is pending or cancelled.
        """
        if not (0.0 <= delay < _INF):  # also rejects NaN
            raise _bad_delay(delay)
        if not handle._fired:
            raise SimulationError(f"cannot re-arm unfired event {handle.name or handle.callback!r}")
        time = handle.time = self._now + float(delay)
        seq = handle.seq = self._seq
        self._seq = seq + 1
        handle._fired = False
        heappush(self._heap, (time, seq, handle))
        self._pending += 1
        return handle

    def schedule_many(
        self,
        entries: Iterable[Sequence[Any]],
        *,
        absolute: bool = False,
    ) -> List[EventHandle]:
        """Bulk-schedule a batch of events in one heap operation.

        Each entry is ``(delay, callback)``, ``(delay, callback, args)`` or
        ``(delay, callback, args, name)`` — the same semantics as one
        :meth:`schedule` call per entry (``absolute=True`` reads the first
        element as an absolute time, i.e. :meth:`schedule_at`), and the
        resulting firing order is identical: events pop by ``(time, seq)``
        no matter how they entered the heap.  For batches that rival the
        heap's size, one ``heapify`` over the extended list is O(n + k)
        instead of k pushes at O(k log n).

        Returns:
            Handles in entry order.

        Raises:
            SchedulingError: On the first invalid entry; the heap is left
                untouched (no partial batch is scheduled).
        """
        new: List[HeapEntry] = []
        handles: List[EventHandle] = []
        now, seq = self._now, self._seq
        for entry in entries:
            time_value, callback = entry[0], entry[1]
            args = tuple(entry[2]) if len(entry) > 2 else ()
            name = entry[3] if len(entry) > 3 else ""
            if absolute:
                if not (now <= time_value < _INF):
                    raise self._bad_time(time_value, name or callback)
                time = float(time_value)
            else:
                if not (0.0 <= time_value < _INF):
                    raise _bad_delay(time_value)
                time = now + float(time_value)
            handle = EventHandle(time, seq, callback, args, name, self)
            new.append((time, seq, handle))
            handles.append(handle)
            seq += 1
        if not new:
            return handles
        # Nothing above touched the simulator: an invalid entry left no trace.
        self._seq = seq
        heap = self._heap
        if len(new) >= max(len(heap) // 4, 8):
            heap.extend(new)
            heapify(heap)
        else:
            for item in new:
                heappush(heap, item)
        self._pending += len(new)
        return handles

    def _note_cancel(self) -> None:
        self._pending -= 1
        # Compact when carcasses outnumber live events: lazy top-sweeping
        # alone lets a cancellation-heavy workload (retry storms, requeue
        # churn) grow the heap with bodies that never reach the top.
        heap = self._heap
        if len(heap) >= COMPACTION_FLOOR and len(heap) - self._pending > self._pending:
            self._compact()

    def _compact(self) -> None:
        heap = self._heap
        live = [entry for entry in heap if not entry[2]._cancelled]
        # In-place so a running event loop holding a reference to the heap
        # list keeps seeing the compacted state.
        heap[:] = live
        heapify(heap)
        self._compactions += 1
        if self.on_compaction is not None:
            self.on_compaction()

    def _bad_time(self, time: Any, label: Any) -> SchedulingError:
        if time != time or time == _INF:
            return SchedulingError(f"cannot schedule event {label!r} at non-finite t={time!r}")
        return SchedulingError(
            f"cannot schedule event {label!r} at t={time}, "
            f"which is before current time t={self._now}"
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the heap is empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> Optional[Event]:
        """Fire the single next pending event.

        Returns:
            The event that fired, or None if no pending events remain.
        """
        self._drop_cancelled()
        if not self._heap:
            return None
        time, _, handle = heappop(self._heap)
        self._now = time
        handle._fired = True
        self._pending -= 1
        self._events_fired += 1
        # Built first: a callback that re-arms the handle moves its seq.
        event = handle.event
        handle.callback(*handle.args)
        return event

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Args:
            until: Stop once simulated time would pass this instant; events
                scheduled exactly at ``until`` still fire.  None runs until
                the heap drains.
            max_events: Optional safety valve on the number of events fired.

        Returns:
            The simulated time when the loop stopped.  If ``until`` was given
            and the heap drained early, the clock is advanced to ``until`` so
            back-to-back ``run`` calls compose naturally.

        Raises:
            SimulationError: If the simulator is already running (re-entrant
                ``run`` from inside a callback).
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant; use schedule from callbacks")
        if until is not None and until < self._now:
            raise SchedulingError(f"run until={until} is before current time t={self._now}")
        self._running = True
        self._stopped = False
        # One bound for both limits keeps the per-event test to a compare
        # each; the heap alias survives compaction, which rebuilds in place.
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        heap = self._heap
        fired = 0
        try:
            # The body of step() inlined (sweep, pop, clock and counters,
            # callback), so one event costs one heappop and one call; the
            # engine's equivalence property holds the two to the same trace.
            while not self._stopped:
                while heap and heap[0][2]._cancelled:
                    heappop(heap)
                if not heap or heap[0][0] > horizon or fired >= budget:
                    break
                time, _, handle = heappop(heap)
                self._now = time
                handle._fired = True
                self._pending -= 1
                self._events_fired += 1
                handle.callback(*handle.args)
                fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` loop to exit after this event."""
        self._stopped = True

    def _drop_cancelled(self) -> None:
        """Sweep cancelled carcasses off the heap top.

        Shared by :meth:`peek` and :meth:`step`; :meth:`run` inlines the
        same rule.  A fired event has left the heap, so "not pending" on
        the heap means cancelled.
        """
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heappop(heap)
