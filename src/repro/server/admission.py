"""Concurrent-stream admission control.

The paper's servers "can also run other services (as all Internet servers)",
so each video server bounds how many simultaneous streams it will source.
The VRA's polling step ("Poll all of those servers to find out which ones
can provide the video") is answered from this controller.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.errors import AdmissionError


class AdmissionController:
    """Counting semaphore over stream slots with named leases.

    ``on_change()`` is called whenever the occupied-slot count moves (an
    input of the VRA poll answer, which its server publishes).
    """

    def __init__(self, max_streams: int, on_change: Optional[Callable[[], None]] = None):
        if max_streams < 1:
            raise AdmissionError(f"max_streams must be >= 1, got {max_streams}")
        self.max_streams = max_streams
        self._active: Set[int] = set()
        self._next_lease = 1
        self.rejected_count = 0
        self.admitted_count = 0
        self._on_change = on_change

    @property
    def active_count(self) -> int:
        """Streams currently admitted."""
        return len(self._active)

    @property
    def load(self) -> float:
        """Stream-slot occupancy in [0, 1] (telemetry gauge)."""
        return len(self._active) / self.max_streams

    @property
    def has_capacity(self) -> bool:
        """True if another stream can be admitted right now."""
        return len(self._active) < self.max_streams

    def admit(self) -> int:
        """Take a stream slot.

        Returns:
            An opaque lease id to pass back to :meth:`release`.

        Raises:
            AdmissionError: If the server is at capacity.
        """
        if not self.has_capacity:
            self.rejected_count += 1
            raise AdmissionError(
                f"server at capacity ({self.max_streams} concurrent streams)"
            )
        lease = self._next_lease
        self._next_lease += 1
        self._active.add(lease)
        self.admitted_count += 1
        if self._on_change is not None:
            self._on_change()
        return lease

    def release(self, lease: int) -> None:
        """Return a stream slot.

        Raises:
            AdmissionError: If the lease is unknown (double release).
        """
        if lease not in self._active:
            raise AdmissionError(f"lease {lease} is not active (double release?)")
        self._active.discard(lease)
        if self._on_change is not None:
            self._on_change()
