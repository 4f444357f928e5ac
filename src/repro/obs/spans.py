"""Per-request session spans.

A :class:`SessionSpan` is the telemetry trail of one client request.  Its
one ``span`` row (:meth:`SessionSpan.to_dict`), written when the span
closes (or by the streamer's ``finish()`` while it is still open), reads
its per-cluster columns from the request's
:class:`~repro.core.session.SessionRecord`.  The span keeps only what the
record does not: one tuple per VRA decision the session used, and the
live events ``submitted`` (the home's DMA pass), ``queued`` (the
admission wait), ``failover`` (each migration's stall) and ``finished``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # repro.core imports repro.obs: no runtime import back
    from repro.core.session import SessionRecord

#: The span row's ``clusters`` columns, one entry per decision the session
#: used: the :class:`~repro.core.session.ClusterRecord` fields of the
#: segment it booked (None where the segment delivered nothing: preempted
#: at once, failed, or still in flight), then the decision's own three.
CLUSTER_COLUMNS = (
    "index", "server_uid", "start", "end", "rate_mbps", "size_mb",
    "qos_violated", "switched",
    "cost", "served_locally", "epoch",
)

_NO_CLUSTER = (None,) * 8


@dataclass(frozen=True)
class SpanEvent:
    """One timestamped event inside a span.

    Attributes:
        time: Simulated time of the event.
        kind: Event kind (``"submitted"``, ``"queued"``, ``"failover"``
            or ``"finished"``).
        attrs: Structured payload.
    """

    time: float
    kind: str
    attrs: Dict[str, object]


@dataclass(eq=False)
class SessionSpan:
    """The telemetry trail of one client request.

    A span is its request's trail, not a value: spans compare and hash by
    identity (``eq=False``).  The service holds it, by request id, only
    while it is open.

    Attributes:
        record: The request's session record (ids, submission time and
            the delivered clusters are read from it).
        events: The live events, in order.
        decisions: One ``(len(record.clusters) when decided, cost,
            served_locally, routing epoch)`` tuple per decision the
            session used, in order.
        finished_at: Simulated completion time (None while running).
        status: Final request status (None while running).
    """

    record: "SessionRecord"
    events: List[SpanEvent] = field(default_factory=list)
    decisions: List[Tuple[int, float, bool, Tuple[object, ...]]] = field(
        default_factory=list
    )
    finished_at: Optional[float] = None
    status: Optional[str] = None

    def add(self, time: float, kind: str, **attrs: object) -> SpanEvent:
        """Record one event."""
        event = SpanEvent(time=time, kind=kind, attrs=attrs)
        self.events.append(event)
        return event

    def finish(self, time: float, status: str, **outcome: object) -> None:
        """Close the span with the request's final status and its
        ``outcome`` attributes (a failure's ``reason``, a completed
        stream's ``startup_s`` and ``stall_s``)."""
        self.finished_at = time
        self.status = status
        self.add(time, "finished", status=status, **outcome)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (the body of the ``span`` row)."""
        request = self.record.request
        return {
            "request_id": request.request_id,
            "client_id": request.client_id,
            "title_id": request.title_id,
            "home_uid": request.home_uid,
            "started_at": request.submitted_at,
            "finished_at": self.finished_at,
            "status": self.status,
            "clusters": self._columns(),
            "events": [{"time": e.time, "kind": e.kind, **e.attrs} for e in self.events],
        }

    def _columns(self) -> Dict[str, list]:
        """:data:`CLUSTER_COLUMNS`, each a list with one entry per decision.

        A decision's segment booked ``clusters[booked]`` exactly when the
        next decision (or the end) found more clusters booked than it did.
        """
        clusters = self.record.clusters
        decisions = self.decisions
        following = [booked for booked, *_ in decisions[1:]] + [len(clusters)]
        entries = []
        for (booked, cost, local, epoch), later in zip(decisions, following):
            c = clusters[booked] if later > booked else None
            head = _NO_CLUSTER if c is None else (
                c.index, c.server_uid, c.start, c.end, c.rate_mbps, c.size_mb,
                c.qos_violated, c.switched,
            )
            entries.append((*head, cost, local, list(epoch)))
        columns = zip(*entries) if entries else [()] * len(CLUSTER_COLUMNS)
        return {name: list(column) for name, column in zip(CLUSTER_COLUMNS, columns)}
