"""Generator-based cooperative processes on top of the event engine.

A :class:`Process` wraps a generator that yields either

* :class:`Delay` — suspend for its non-negative duration, or
* a :class:`Park` — hand the wake-up to the yielded object itself: a
  streaming session's transfer ticks on the engine by itself and resumes
  the generator when its segment is over.

Anything else (a bare number included), or a bad delay, raises a
:class:`~repro.errors.SimulationError` in the generator at its ``yield``;
uncaught, it ends the process and not the event loop.

This is the idiom used by long-lived actors in the simulation, e.g. a
streaming session that alternates "download cluster" / "re-run VRA" steps.
"""

from __future__ import annotations

from typing import Any, Generator, NamedTuple, Optional

from repro.errors import SimulationError
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
    they cancel a :class:`Delay`.  An error in one of its own events is
    raised in the generator, at the ``yield``, by
    ``process._resume(error, True)``: the generator may handle it.
    """

    __slots__ = ()

    def _park(self, process: "Process") -> None:
        raise NotImplementedError


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
        session's transfer) is woken the same way, mid-step; one parked
        with no pending event, or already finished, is left alone.

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
    def _resume(self, payload: Any, throw: bool = False) -> None:
        """Run the generator to its next yield: send it ``payload``, or
        with ``throw`` raise ``payload`` at the yield it sleeps on."""
        if self._finished:
            return
        self._pending_handle = None
        try:
            if throw:
                yielded = self._generator.throw(payload)
            else:
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
            if not isinstance(yielded, Delay):
                raise SimulationError(
                    f"process {self.name} yielded unsupported value {yielded!r}; "
                    "yield a Delay or a Park"
                )
            self._pending_handle = self._sim.schedule(
                yielded.duration, self._resume, None, name=self._delay_name
            )
        except SimulationError as exc:
            # A bad yield (a negative or non-finite delay, or neither a
            # Delay nor a Park) is raised in the generator at the yield;
            # uncaught, it ends this process, not the event loop.
            self._resume(exc, True)

    def _finish(self) -> None:
        self._finished = True
        self._delay_name = ""
