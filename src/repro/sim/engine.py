"""The discrete-event simulation engine.

:class:`Simulator` maintains a binary heap of scheduled events (each one
an :class:`EventHandle`), a FIFO lane beside it for the re-arms of
stepping handles, and a simulated clock.  Everything in the
reproduction — SNMP collector periods, video cluster transfer completions,
client arrivals — is driven by this one loop, which keeps runs fully
deterministic for a given seed and schedule.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import Event

#: Heaps smaller than this are never compacted: sweeping a few dozen
#: entries off the top lazily is cheaper than any rebuild.
COMPACTION_FLOOR = 64

_INF = float("inf")

#: One heap entry: ``(time, seq, handle)``.  The first two fields are the
#: total order; ``seq`` is unique, so a comparison never reaches the handle.
HeapEntry = Tuple[float, int, "EventHandle"]


def bad_delay(delay: Any) -> SchedulingError:
    """The error for a negative or non-finite delay."""
    if delay == _INF:
        return SchedulingError("delay must be finite")
    return SchedulingError(f"delay must be non-negative and finite, got {delay!r}")


class EventHandle:
    """A scheduled event, as :meth:`Simulator.schedule` returns it.

    The handle *is* the event (``time, seq, callback, args, name``);
    :attr:`event` builds the immutable :class:`Event` value on demand.  The
    engine re-arms a *stepping* handle by the delay its callback returns,
    as a fresh ``schedule`` would fire it (None: it is done).  Cancelling
    is O(1): the handle is flagged and the engine discards the event when
    it reaches the top of the queues.
    """

    __slots__ = (
        "time", "seq", "callback", "args", "name", "_cancelled", "_fired", "_stepping", "_sim",
    )

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: Tuple[Any, ...], name: str, sim: "Simulator", stepping: bool = False):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.name = name
        self._cancelled = False
        self._fired = False
        self._stepping = stepping
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
        """True once the event's callback has run (and no step re-armed it)."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
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
        #: Re-arms not earlier than its tail, so in ``(time, seq)`` order.
        self._lane: Deque[HeapEntry] = deque()
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
        """Raw length of the heap and the lane, cancelled carcasses included.

        Telemetry gauge: ``heap_depth - pending_count`` is the number of
        cancelled events still waiting to be swept off the queues, which is
        the engine's memory overhead from cancellation-heavy workloads.
        """
        return len(self._heap) + len(self._lane)

    @property
    def compactions(self) -> int:
        """Cancelled-carcass heap compactions performed (diagnostic).

        The engine rebuilds the heap whenever carcasses outnumber pending
        events (above :data:`COMPACTION_FLOOR`), so cancellation-heavy
        failover workloads hold O(pending) memory instead of growing
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
        stepping: bool = False,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` from now.

        Args:
            delay: Non-negative offset from the current simulated time.
            callback: Callable invoked when the event fires.
            *args: Positional arguments stored with the event.
            name: Optional label used in error messages and traces.
            stepping: Re-arm the handle, with a fresh ``seq``, by the delay
                its callback returns: non-negative and finite, or None.

        Returns:
            The event's handle.

        Raises:
            SchedulingError: If ``delay`` is negative or not finite.
        """
        if not (0.0 <= delay < _INF):  # also rejects NaN
            raise bad_delay(delay)
        return self._push(self._now + float(delay), callback, args, name, stepping)

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
        self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...], name: str,
        stepping: bool = False,
    ) -> EventHandle:
        """Put one validated event on the heap."""
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, name, self, stepping)
        heappush(self._heap, (time, seq, handle))
        self._pending += 1
        return handle

    def schedule_many(self, entries: Iterable[Sequence[Any]]) -> List[EventHandle]:
        """Bulk-schedule a batch of events at absolute times in one heap
        operation.

        Each entry is ``(time, callback)``, ``(time, callback, args)`` or
        ``(time, callback, args, name)`` — the same semantics as one
        :meth:`schedule_at` call per entry, and the resulting firing order
        is identical: events pop by ``(time, seq)`` no matter how they
        entered the heap.  One ``heapify`` over the extended list is
        O(n + k) instead of k pushes at O(k log n).

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
            time, callback = entry[0], entry[1]
            args = tuple(entry[2]) if len(entry) > 2 else ()
            name = entry[3] if len(entry) > 3 else ""
            if not (now <= time < _INF):
                raise self._bad_time(time, name or callback)
            time = float(time)
            handle = EventHandle(time, seq, callback, args, name, self)
            new.append((time, seq, handle))
            handles.append(handle)
            seq += 1
        # Nothing above touched the simulator: an invalid entry left no trace.
        self._seq = seq
        heap = self._heap
        heap.extend(new)
        heapify(heap)
        self._pending += len(new)
        return handles

    def _note_cancel(self) -> None:
        self._pending -= 1
        # Compact when carcasses outnumber live events: lazy top-sweeping
        # alone lets a cancellation-heavy workload (failover storms, poke
        # churn) grow the queues with bodies that never reach the top.
        depth = len(self._heap) + len(self._lane)
        if depth >= COMPACTION_FLOOR and depth - self._pending > self._pending:
            self._compact()

    def _compact(self) -> None:
        # In-place so a running event loop holding a reference to the heap
        # list and the lane keeps seeing the compacted state.
        heap, lane = self._heap, self._lane
        heap[:] = [entry for entry in heap if not entry[2]._cancelled]
        heapify(heap)
        live = [entry for entry in lane if not entry[2]._cancelled]
        lane.clear()
        lane.extend(live)
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
        """Time of the next pending event, or None if none is pending."""
        head = self._head()
        return None if head is None else head.time

    def step(self) -> Optional[Event]:
        """Fire the single next pending event: :meth:`run` for one event.

        Returns:
            The event that fired (as it was before a stepping handle's
            re-arm moved it), or None if no pending events remain.
        """
        head = self._head()
        if head is None:
            return None
        event = head.event
        self.run(max_events=1)
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
        # each; the queue aliases survive compaction, which works in place.
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        heap, lane = self._heap, self._lane
        fired = 0
        try:
            # Sweep, pop, clock and counters, callback, re-arm: a step of a
            # stepping handle costs one lane pop, one call and one append.
            # The equivalence property holds this loop (and step(), which
            # runs it once) to a one-heap reference engine's trace.
            while not self._stopped:
                if lane and (not heap or lane[0] < heap[0]):
                    entry = lane.popleft()
                    time, _, handle = entry
                    if handle._cancelled:
                        continue
                    if time > horizon or fired >= budget:
                        lane.appendleft(entry)
                        break
                elif heap:
                    time, _, handle = heap[0]
                    if handle._cancelled:
                        heappop(heap)
                        continue
                    if time > horizon or fired >= budget:
                        break
                    heappop(heap)
                else:
                    break
                self._now = time
                handle._fired = True
                self._pending -= 1
                self._events_fired += 1
                fired += 1
                if handle._stepping:
                    delay = handle.callback(*handle.args)
                    if delay is not None:
                        time = handle.time = time + delay
                        seq = handle.seq = self._seq
                        self._seq = seq + 1
                        handle._fired = False
                        if not lane or time >= lane[-1][0]:
                            lane.append((time, seq, handle))
                        else:
                            heappush(heap, (time, seq, handle))
                        self._pending += 1
                else:
                    handle.callback(*handle.args)
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` loop to exit after this event."""
        self._stopped = True

    def _head(self) -> Optional[EventHandle]:
        """Sweep cancelled carcasses off the global top, the earlier of the
        two heads, and return the handle that fires next (None: none).
        :meth:`run` inlines the same rule.  A fired event has left the
        queues, so "not pending" in them means cancelled."""
        heap, lane = self._heap, self._lane
        while lane or heap:
            if lane and (not heap or lane[0] < heap[0]):
                if not lane[0][2]._cancelled:
                    return lane[0][2]
                lane.popleft()
            elif heap[0][2]._cancelled:
                heappop(heap)
            else:
                return heap[0][2]
        return None
