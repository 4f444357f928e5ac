"""Video request lifecycle.

A :class:`VideoRequest` tracks one client's ask from submission to
completion; the streaming session updates it as clusters arrive.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

_request_ids = itertools.count(1)


class RequestStatus(enum.Enum):
    """Lifecycle states of a video request."""

    PENDING = "pending"
    STREAMING = "streaming"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class VideoRequest:
    """One client request for one title.

    Attributes:
        request_id: Unique id: a service numbers the requests it creates
            1, 2, ...; a request built on its own draws from a
            per-process counter.
        client_id: The requesting client.
        home_uid: The client's adjacent server (resolved from its address).
        title_id: The requested title.
        submitted_at: Simulated submission time.
        status: Current lifecycle state.
        failure_reason: Set when ``status`` is FAILED.
    """

    client_id: str
    home_uid: str
    title_id: str
    submitted_at: float
    request_id: int = field(default_factory=lambda: next(_request_ids))
    status: RequestStatus = RequestStatus.PENDING
    failure_reason: Optional[str] = None

    def mark_streaming(self) -> None:
        """Transition to STREAMING (first cluster fetch has begun)."""
        self.status = RequestStatus.STREAMING

    def mark_completed(self) -> None:
        """Transition to COMPLETED (all clusters delivered)."""
        self.status = RequestStatus.COMPLETED

    def mark_failed(self, reason: str) -> None:
        """Transition to FAILED with a reason."""
        self.status = RequestStatus.FAILED
        self.failure_reason = reason

    @property
    def finished(self) -> bool:
        """True in either terminal state."""
        return self.status in (RequestStatus.COMPLETED, RequestStatus.FAILED)
