"""Structured event tracing.

A :class:`Tracer` turns timestamped, categorised events from anywhere in
the service (VRA decisions, placement passes, request outcomes, SNMP
polls) into ``trace`` rows on a telemetry sink
(:mod:`repro.obs.sink`), the one row stream a run writes.  Tracing is
opt-in and cheap: a disabled tracer discards events without formatting
anything.  By default a tracer writes into its own
:class:`~repro.obs.sink.MemoryTelemetrySink`, which keeps every row;
readers read that sink's rows.  Session spans are rows of their own,
not trace events.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.sink import MemoryTelemetrySink, TelemetrySink


class Tracer:
    """A thin producer of ``trace`` rows over one telemetry sink.

    Each recorded event becomes one row ``{"kind": "trace", "time",
    "category", "message", "data"}``.

    Args:
        enabled: Disabled tracers drop events immediately.
        sink: Where rows go; a fresh memory sink by default.
    """

    def __init__(self, enabled: bool = True, sink: Optional[TelemetrySink] = None):
        self.enabled = enabled
        self.sink = sink if sink is not None else MemoryTelemetrySink()

    def record(self, time: float, category: str, message: str, **data: object) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        self.sink.write(
            {"kind": "trace", "time": time, "category": category, "message": message, "data": data}
        )
