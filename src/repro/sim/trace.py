"""Structured event tracing.

A :class:`Tracer` collects timestamped, categorised events from anywhere
in the service (VRA decisions, DMA actions, cluster deliveries, SNMP
polls) for debugging and post-run analysis.  Tracing is opt-in and cheap:
a disabled tracer discards events without formatting anything.

The tracer is also the sink for the structured session spans of
:mod:`repro.obs.spans`; :meth:`Tracer.to_jsonl` / :meth:`Tracer.export_jsonl`
serialise a run's full trace as JSON Lines for offline analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, TextIO

#: Categories the service and its spans are known to emit.  ``format()``
#: pads to the longest registered category so dump columns line up; new
#: categories register themselves on first record.
_REGISTERED_CATEGORIES: Set[str] = {
    "placement.pass",
    "request.blocked",
    "request.submitted",
    "service.expanded",
    "service.snapshot",
    "session.finished",
    "snmp.round",
    "span.cluster.delivered",
    "span.finished",
    "span.submitted",
    "span.switch",
    "span.vra.decision",
    "vra.decision",
}
_PAD_WIDTH: int = max(len(category) for category in _REGISTERED_CATEGORIES)


def register_category(category: str) -> None:
    """Register a category so :meth:`TraceEvent.format` pads wide enough.

    Idempotent; called automatically by :meth:`Tracer.record`, and
    callable up front by extensions that format events directly.
    """
    global _PAD_WIDTH
    if category not in _REGISTERED_CATEGORIES:
        _REGISTERED_CATEGORIES.add(category)
        if len(category) > _PAD_WIDTH:
            _PAD_WIDTH = len(category)


def registered_categories() -> List[str]:
    """Every category registered so far, sorted."""
    return sorted(_REGISTERED_CATEGORIES)


def category_pad_width() -> int:
    """Current pad width: the longest registered category."""
    return _PAD_WIDTH


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    Attributes:
        time: Simulated time of the event.
        category: Dotted category, e.g. ``"vra.decision"``.
        message: Human-readable one-liner.
        data: Structured payload for analysis code.
    """

    time: float
    category: str
    message: str
    data: Dict[str, object]

    def format(self) -> str:
        """``[   123.4s] vra.decision  chose U4`` style line.

        The category column is padded to the longest *registered*
        category (see :func:`register_category`), so no category ever
        overflows its column and dumps stay aligned.
        """
        register_category(self.category)
        return f"[{self.time:10.1f}s] {self.category:<{_PAD_WIDTH}} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation of this event."""
        return {
            "time": self.time,
            "category": self.category,
            "message": self.message,
            **{f"data.{key}": _jsonable(value) for key, value in self.data.items()},
        }


def _jsonable(value: object) -> object:
    if isinstance(value, tuple):
        return list(value)
    return value


class Tracer:
    """Collects :class:`TraceEvent` records.

    Args:
        enabled: Disabled tracers drop events immediately.
        capacity: Keep at most this many events (oldest dropped first);
            None keeps everything.
    """

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None):
        self.enabled = enabled
        self.capacity = capacity
        self._events: List[TraceEvent] = []
        self._dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped_count(self) -> int:
        """Events discarded due to the capacity bound.

        Part of the public API: the ``obs`` CLI summaries report it so a
        truncated trace is never mistaken for a complete one.
        """
        return self._dropped

    def record(
        self,
        time: float,
        category: str,
        message: str,
        **data: object,
    ) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        register_category(category)
        self._events.append(
            TraceEvent(time=time, category=category, message=message, data=data)
        )
        if self.capacity is not None and len(self._events) > self.capacity:
            overflow = len(self._events) - self.capacity
            del self._events[:overflow]
            self._dropped += overflow

    def events(self, category: Optional[str] = None) -> List[TraceEvent]:
        """All events, optionally filtered by category prefix.

        ``category="vra"`` matches ``"vra"`` and ``"vra.decision"`` but
        not ``"vrawhatever"``.
        """
        if category is None:
            return list(self._events)
        prefix = category + "."
        return [
            event
            for event in self._events
            if event.category == category or event.category.startswith(prefix)
        ]

    def between(self, start: float, end: float) -> List[TraceEvent]:
        """Events with start <= time < end."""
        return [e for e in self._events if start <= e.time < end]

    def categories(self) -> List[str]:
        """Distinct categories recorded, sorted."""
        return sorted({event.category for event in self._events})

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()
        self._dropped = 0

    def dump(self, limit: Optional[int] = None) -> str:
        """Formatted multi-line dump of the newest ``limit`` events."""
        events = self._events if limit is None else self._events[-limit:]
        return "\n".join(event.format() for event in events)

    # ------------------------------------------------------------------ #
    # JSONL export
    # ------------------------------------------------------------------ #
    def to_jsonl(self, category: Optional[str] = None) -> str:
        """The trace as JSON Lines text (one event per line).

        Args:
            category: Optional category-prefix filter, as in
                :meth:`events`.
        """
        return "\n".join(
            json.dumps(event.to_dict(), sort_keys=True)
            for event in self.events(category)
        )

    def export_jsonl(self, out: TextIO, category: Optional[str] = None) -> int:
        """Write the trace as JSON Lines; returns the event count."""
        count = 0
        for event in self.events(category):
            out.write(json.dumps(event.to_dict(), sort_keys=True))
            out.write("\n")
            count += 1
        return count
