"""Periodic task helper.

The paper's SNMP statistics module re-samples link utilisation "every time a
predefined time limit expires (1-2 minutes)".  :class:`PeriodicTask` is the
engine-level primitive for that behaviour: it fires a callback every
``period`` simulated seconds until stopped.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SchedulingError
from repro.sim.engine import EventHandle, Simulator


class PeriodicTask:
    """Fires ``callback()`` every ``period`` seconds of simulated time.

    The first firing happens at ``start_delay`` (default: one full period)
    after :meth:`start`.  The callback may call :meth:`stop` to end the
    series.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        name: str = "periodic",
    ):
        if not (period > 0.0):
            raise SchedulingError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self.name = name
        self._handle: Optional[EventHandle] = None
        self._running = False

    @property
    def running(self) -> bool:
        """True while the task is armed."""
        return self._running

    def start(self, start_delay: Optional[float] = None) -> None:
        """Arm the task.  ``start_delay`` defaults to one period."""
        if self._running:
            return
        delay = self._period if start_delay is None else start_delay
        # Armed first: a refused delay leaves the task stopped, not dead.
        self._handle = self._sim.schedule(delay, self._fire, name=f"{self.name}:tick")
        self._running = True

    def stop(self) -> None:
        """Disarm the task; safe to call from inside the callback."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        # stop() cancels the pending tick, so a tick only fires while armed.
        self._callback()
        if self._running:
            self._handle = self._sim.schedule(self._period, self._fire, name=f"{self.name}:tick")
