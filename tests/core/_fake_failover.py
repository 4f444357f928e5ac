"""Test-only failover control: the supervisor's session-facing surface,
with a timer in place of the change feed.

:class:`FakeFailover` answers a session the way a
:class:`~repro.resilience.supervisor.SessionSupervisor` whose title
always keeps a full holder would, except that nothing on a feed ends a
stall: every stall is a :class:`TimedStall` that wakes its session with
one ``signal:`` event ``wake_after(now)`` seconds after it parks.
"""

from __future__ import annotations

from typing import Callable, List

from repro.sim.process import Park


class TimedStall(Park):
    """A stall a timer ends: one ``signal:<process>`` event, ``after(now)``
    seconds after the session parks."""

    __slots__ = ("after",)

    def __init__(self, after: Callable[[float], float]):
        self.after = after

    def _park(self, process) -> None:
        sim = process._sim
        process._pending_handle = sim.schedule(
            self.after(sim.now), process._resume, None, name=f"signal:{process.name}"
        )


class FakeFailover:
    """A failover control whose title always keeps a full holder.

    Attributes:
        stalls: Each failover's stall, as ``note_failover`` heard it.
        parked: Stalls handed out.
        stall_decides: Decides the woken stalls ran.
    """

    def __init__(self, wake_after: Callable[[float], float] = lambda now: 15.0):
        self.wake_after = wake_after
        self.stalls: List[float] = []
        self.parked = 0
        self.stall_decides = 0

    def track(self, transfer) -> None:
        pass

    def untrack(self, transfer) -> None:
        pass

    def stall(self, title_id, cluster, error, reason) -> TimedStall:
        self.parked += 1
        return TimedStall(self.wake_after)

    def discard(self, stall) -> None:
        pass

    def note_stall_decide(self) -> None:
        self.stall_decides += 1

    def note_failover(self, stall_s: float) -> None:
        self.stalls.append(stall_s)
