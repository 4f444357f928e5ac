"""Structured event tracing.

A :class:`Tracer` turns timestamped, categorised events from anywhere in
the service (VRA decisions, placement passes, request outcomes, SNMP
polls) into ``trace`` rows on a telemetry sink
(:mod:`repro.obs.sink`), the one row stream a run writes.  Tracing is
opt-in and cheap: a disabled tracer discards events without formatting
anything.  By default a tracer writes into its own unbounded
:class:`~repro.obs.sink.MemoryTelemetrySink`, whose rows its query
methods read; session spans are rows of their own, not trace events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.obs.sink import MemoryTelemetrySink, TelemetrySink

#: Categories the service is known to emit.  ``format()``
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


class Tracer:
    """A thin producer of ``trace`` rows over one telemetry sink.

    Each recorded event becomes one row ``{"kind": "trace", "time",
    "category", "message", "data"}``.  The query methods read the trace
    rows a :class:`~repro.obs.sink.MemoryTelemetrySink` holds (rows of
    other kinds sharing the sink are skipped).

    Args:
        enabled: Disabled tracers drop events immediately.
        sink: Where rows go; a fresh unbounded memory sink by default.
            Bound a trace with ``MemoryTelemetrySink(capacity=...)``.
    """

    def __init__(self, enabled: bool = True, sink: Optional[TelemetrySink] = None):
        self.enabled = enabled
        self.sink = sink if sink is not None else MemoryTelemetrySink()

    def __len__(self) -> int:
        return sum(1 for row in self.sink.rows if row["kind"] == "trace")

    def record(self, time: float, category: str, message: str, **data: object) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        register_category(category)
        self.sink.write(
            {"kind": "trace", "time": time, "category": category, "message": message, "data": data}
        )

    def events(self, category: Optional[str] = None) -> List[TraceEvent]:
        """All kept events, optionally filtered by category prefix.

        ``category="vra"`` matches ``"vra"`` and ``"vra.decision"`` but
        not ``"vrawhatever"``.
        """
        prefix = f"{category}."
        return [
            TraceEvent(row["time"], row["category"], row["message"], row["data"])
            for row in self.sink.rows
            if row["kind"] == "trace"
            and (category is None or f"{row['category']}.".startswith(prefix))
        ]

    def between(self, start: float, end: float) -> List[TraceEvent]:
        """Events with start <= time < end."""
        return [e for e in self.events() if start <= e.time < end]

    def categories(self) -> List[str]:
        """Distinct categories recorded, sorted."""
        return sorted({event.category for event in self.events()})

    def clear(self) -> None:
        """Drop every row the memory sink keeps, and its drop count."""
        self.sink.rows.clear()
        self.sink.dropped = 0

    def dump(self, limit: Optional[int] = None) -> str:
        """Formatted multi-line dump of the newest ``limit`` events."""
        events = self.events()
        if limit is not None:
            events = events[-limit:]
        return "\n".join(event.format() for event in events)
