"""Generator-based cooperative processes on top of the event engine.

A :class:`Process` wraps a generator that yields either

* :class:`Delay` (or a bare non-negative number) — suspend for that long, or
* a :class:`Park` — hand the wake-up to the yielded object itself:
  :class:`WaitSignal` suspends until a :class:`Signal` is triggered, and a
  streaming session's transfer ticks on the engine by itself and resumes
  the generator when its segment is over.

This is the idiom used by long-lived actors in the simulation, e.g. a
streaming session that alternates "download cluster" / "re-run VRA" steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, NamedTuple, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import EventHandle, Simulator


class Delay(NamedTuple):
    """Yield value: suspend the process for ``duration`` simulated seconds.

    Immutable; a named tuple because a streaming session builds one per
    transfer step.
    """

    duration: float


class Park:
    """Yield value base: the yielded object decides when the process wakes.

    The process calls :meth:`_park` once, right after the ``yield``, and
    then sleeps until the object calls ``process._resume(payload)``.  An
    object that waits on engine events of its own keeps the pending one in
    ``process._pending_handle`` (and names it ``process._delay_name``), so
    :meth:`Process.interrupt` and :meth:`Process.poke` cancel it exactly as
    they cancel a :class:`Delay`; a :class:`~repro.errors.SchedulingError`
    from a later event of its own goes to ``process._fail``.
    """

    __slots__ = ()

    def _park(self, process: "Process") -> None:
        raise NotImplementedError


class Signal:
    """A one-to-many wake-up condition.

    Processes yield :class:`WaitSignal` on a signal; :meth:`trigger` resumes
    every waiter at the current simulated time, passing ``payload`` back as
    the value of the ``yield`` expression.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._waiters: List[Process] = []
        self._trigger_count = 0

    @property
    def trigger_count(self) -> int:
        """Number of times this signal has been triggered."""
        return self._trigger_count

    @property
    def waiter_count(self) -> int:
        """Number of processes currently blocked on this signal."""
        return len(self._waiters)

    def trigger(self, sim: Simulator, payload: Any = None) -> int:
        """Wake all waiting processes via zero-delay events.

        Returns:
            The number of processes that were woken.
        """
        self._trigger_count += 1
        waiters, self._waiters = self._waiters, []
        if waiters:
            name = f"signal:{self.name}"
            for process in waiters:
                sim.schedule(0.0, process._resume, payload, name=name)
        return len(waiters)

    def _register(self, process: "Process") -> None:
        self._waiters.append(process)


@dataclass(frozen=True)
class WaitSignal(Park):
    """Yield value: suspend the process until ``signal`` is triggered."""

    signal: Signal

    def _park(self, process: "Process") -> None:
        self.signal._register(process)


class Process:
    """Drives a generator as a cooperative simulated process.

    The generator's ``return`` value is captured in :attr:`result`; an
    uncaught exception is captured in :attr:`error` and re-raised from
    :meth:`check`.
    """

    def __init__(self, sim: Simulator, generator: Generator[Any, Any, Any], name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process requires a generator, got {type(generator).__name__}")
        self._sim = sim
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._finished = False
        self._pending_handle: Optional[EventHandle] = None
        self.finished_signal = Signal(name=f"{self.name}.finished")
        # Name of the delay wake-ups, built once rather than per wake-up.
        # The pending delay event holds the same string, so a sleeping
        # process costs no more memory than one formatted name; dropped in
        # _finish because callers retain finished processes.
        self._delay_name = f"delay:{self.name}"
        # Kick off on the next zero-delay tick so construction never runs
        # user code synchronously.
        self._pending_handle = sim.schedule(0.0, self._resume, None, name=f"start:{self.name}")

    @property
    def finished(self) -> bool:
        """True once the generator has returned or raised."""
        return self._finished

    def check(self) -> Any:
        """Return the process result, re-raising any captured exception."""
        if self.error is not None:
            raise self.error
        return self.result

    def interrupt(self) -> bool:
        """Cancel the process's pending wake-up and finish it immediately.

        Returns:
            True if the process was running and is now interrupted.
        """
        if self._finished:
            return False
        if self._pending_handle is not None:
            self._pending_handle.cancel()
            self._pending_handle = None
        self._generator.close()
        self._finish()
        return True

    def poke(self, payload: Any = None) -> bool:
        """Wake a process sleeping on a :class:`Delay` at the current time.

        The pending delay event is cancelled and the generator resumes via
        a zero-delay event with ``payload`` as the value of the ``yield``
        expression.  Unlike :meth:`interrupt` the generator keeps running.
        A process parked on an object that keeps its pending event here (a
        session's transfer) is woken the same way, mid-step; one waiting
        on a signal (no pending event) or already finished is left alone.

        Returns:
            True if the process was sleeping and has been rescheduled.
        """
        if self._finished or self._pending_handle is None:
            return False
        if not self._pending_handle.pending:
            return False
        self._pending_handle.cancel()
        self._pending_handle = self._sim.schedule(
            0.0, self._resume, payload, name=f"poke:{self.name}"
        )
        return True

    # ------------------------------------------------------------------ #
    def _resume(self, payload: Any) -> None:
        if self._finished:
            return
        self._pending_handle = None
        try:
            yielded = self._generator.send(payload)
        except StopIteration as stop:
            self.result = stop.value
            self._finish()
            return
        except Exception as exc:  # capture, don't kill the event loop
            self.error = exc
            self._finish()
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        try:
            if isinstance(yielded, Park):
                yielded._park(self)
                return
            if isinstance(yielded, Delay):
                duration = yielded.duration
            elif isinstance(yielded, (int, float)):
                duration = yielded
            else:
                self._fail(SimulationError(
                    f"process {self.name} yielded unsupported value {yielded!r}; "
                    "yield a Delay, a number, or a Park such as WaitSignal"
                ))
                return
            self._pending_handle = self._sim.schedule(
                duration, self._resume, None, name=self._delay_name
            )
        except SchedulingError as exc:  # negative or non-finite delay
            self._fail(exc)

    def _fail(self, error: BaseException) -> None:
        """A bad yield value ends this process, not the event loop."""
        self.error = error
        self._generator.close()
        self._finish()

    def _finish(self) -> None:
        self._finished = True
        self._delay_name = ""
        self.finished_signal.trigger(self._sim, self)
