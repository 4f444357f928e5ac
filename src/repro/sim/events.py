"""Event record used by the simulation engine.

An :class:`Event` pairs a firing time with a callback.  Events are ordered by
``(time, seq)`` where ``seq`` is a monotonically increasing sequence number,
so two events scheduled for the same instant fire in FIFO order — a property
the tests assert because stream bookkeeping depends on it.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Tuple


class Event(NamedTuple):
    """A scheduled callback.

    An immutable record (assigning to a field raises ``AttributeError``);
    a named tuple because the engine builds one per scheduled event and a
    tuple is the cheapest immutable record the interpreter has.

    Attributes:
        time: Simulated time at which the event fires.
        seq: Tie-breaking sequence number (scheduling order).
        callback: Zero-result callable invoked when the event fires.
        args: Positional arguments passed to ``callback``.
        name: Optional human-readable label used in traces and error text.
    """

    time: float
    seq: int
    callback: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    name: str = ""

    @property
    def key(self) -> Tuple[float, int]:
        """The ``(time, seq)`` pair defining the engine's total order."""
        return self[:2]

    def sort_key(self) -> Tuple[float, int]:
        """Key defining the engine's total order over events."""
        return self[:2]

    def fire(self) -> Any:
        """Invoke the callback with its stored arguments."""
        return self.callback(*self.args)

    def label(self) -> str:
        """Readable label for traces: the explicit name or callback repr."""
        if self.name:
            return self.name
        return getattr(self.callback, "__qualname__", repr(self.callback))
