"""Per-request session spans.

A :class:`SessionSpan` follows one client request end to end: submission,
the DMA pass, every VRA decision (with its routing epoch and wall-clock
decision latency), every cluster delivery, every mid-stream switch, and
the final outcome.  It unifies the loose per-category trace records the
service used to emit ad hoc — the structured
:class:`~repro.sim.trace.Tracer` stays the sink (each span event is also
recorded there under a ``span.<kind>`` category), and spans additionally
keep their events together per request for export and analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.trace import Tracer


@dataclass(frozen=True)
class SpanEvent:
    """One timestamped event inside a span.

    Attributes:
        time: Simulated time of the event.
        kind: Event kind (``"vra.decision"``, ``"cluster.delivered"``,
            ``"switch"``, ``"finished"``, ...).
        attrs: Structured payload.
    """

    time: float
    kind: str
    attrs: Dict[str, object]


@dataclass(eq=False)
class SessionSpan:
    """The telemetry trail of one client request.

    A span is its request's trail, not a value: spans compare and hash by
    identity (``eq=False``), so handing one off — ``service.spans.remove``
    when the streamer flushes it — is a pointer scan that can never pick
    a different span whose fields happen to be equal.

    Attributes:
        request_id: The request's unique id.
        client_id: The requesting client.
        title_id: The requested title.
        home_uid: The client's home server.
        started_at: Simulated submission time.
        events: Recorded events, in order.
        finished_at: Simulated completion time (None while running).
        status: Final request status (None while running).
        sink: Optional tracer receiving every event as ``span.<kind>``.
    """

    request_id: int
    client_id: str
    title_id: str
    home_uid: str
    started_at: float
    events: List[SpanEvent] = field(default_factory=list)
    finished_at: Optional[float] = None
    status: Optional[str] = None
    sink: Optional[Tracer] = None

    def add(self, time: float, kind: str, **attrs: object) -> SpanEvent:
        """Record one event (and forward it to an enabled tracer sink)."""
        event = SpanEvent(time=time, kind=kind, attrs=attrs)
        self.events.append(event)
        if self.sink is not None and self.sink.enabled:
            self.sink.record(
                time,
                f"span.{kind}",
                f"{self.client_id}/{self.title_id}",
                request_id=self.request_id,
                **attrs,
            )
        return event

    def finish(self, time: float, status: str) -> None:
        """Close the span with the request's final status."""
        self.finished_at = time
        self.status = status
        self.add(time, "finished", status=status)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def open(self) -> bool:
        """True while the request is still in flight."""
        return self.finished_at is None

    @property
    def duration_s(self) -> Optional[float]:
        """Submission-to-finish span length (None while open)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def events_of(self, kind: str) -> List[SpanEvent]:
        """Events of one kind, in order."""
        return [event for event in self.events if event.kind == kind]

    @property
    def decision_count(self) -> int:
        """VRA decisions taken for this request."""
        return len(self.events_of("vra.decision"))

    @property
    def switch_count(self) -> int:
        """Mid-stream server switches recorded."""
        return len(self.events_of("switch"))

    @property
    def servers_used(self) -> List[str]:
        """Distinct cluster source servers, in first-use order."""
        seen: List[str] = []
        for event in self.events_of("cluster.delivered"):
            uid = event.attrs.get("server_uid")
            if isinstance(uid, str) and uid not in seen:
                seen.append(uid)
        return seen

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by the JSONL export)."""
        return {
            "request_id": self.request_id,
            "client_id": self.client_id,
            "title_id": self.title_id,
            "home_uid": self.home_uid,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "status": self.status,
            "decision_count": self.decision_count,
            "switch_count": self.switch_count,
            "servers_used": self.servers_used,
            "events": [
                {"time": e.time, "kind": e.kind, **_jsonable(e.attrs)}
                for e in self.events
            ],
        }


def _jsonable(attrs: Dict[str, object]) -> Dict[str, object]:
    """Coerce payload values JSON can't represent (tuples) to lists."""
    out: Dict[str, object] = {}
    for key, value in attrs.items():
        if isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out
