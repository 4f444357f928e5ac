"""Queue-based load-leveling admission front-end for flash crowds.

A flash crowd lands hundreds of requests inside one simulated tick.  The
paper's service admits each one immediately, which is fine for decision
*correctness* (the VRA answers every request identically within a routing
epoch) but terrible for load shape: every session starts at once, every
stream slot is grabbed in the same instant, and the overload failure mode
is an avalanche of mid-decision rejections.

The :class:`AdmissionQueue` levels that burst instead.  Requests enter a
bounded deterministic FIFO that drains at a configured service rate,
quantised into ticks:

* up to ``rate_per_s * tick_s`` requests are admitted inside each tick
  (minimum one — the queue always makes progress);
* a request arriving while the current tick still has quota is admitted
  **immediately with zero delay** — the underloaded path is byte-identical
  to running without a queue;
* past the quota, requests are assigned to the next free tick, in arrival
  order, and wait ``admit_at - now`` simulated seconds;
* once ``capacity`` requests are waiting, further arrivals are **shed** —
  rejected outright with explicit telemetry rather than timing out later.

Everything is a pure function of the arrival sequence (times, order), so a
seeded replay produces the identical admit/delay/shed outcome for every
request — the property the determinism tests pin.

Requests admitted inside the same tick form a *batch cohort*: with the
decision memo on, the whole cohort for one ``(home, title)`` key resolves
against a single cached :class:`~repro.core.vra.VraDecision`, which is the
"batches of queued same-key requests are resolved with a single cached
decision" half of the flash-crowd story.  The queue tracks cohort sizes
and same-key coalescing counts so reports can show it happening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Set

from repro.errors import ReproError
from repro.obs.registry import MetricsRegistry

#: Default drain rate when the queue is enabled without an explicit rate.
DEFAULT_ADMISSION_RATE_PER_S = 100.0
#: Default drain-tick width (simulated seconds).
DEFAULT_ADMISSION_TICK_S = 1.0


@dataclass(frozen=True)
class AdmissionSlot:
    """Outcome of one :meth:`AdmissionQueue.offer`.

    Attributes:
        shed: True when the queue was full and the request was rejected.
        admit_at: Simulated time the request may start (equals the offer
            time for immediate admissions; meaningless when shed).
        wait_s: ``admit_at - now`` — zero for immediate admissions.
        depth: Requests waiting (delayed, not yet released) observed at
            offer time, before this request joined.
    """

    shed: bool
    admit_at: float
    wait_s: float
    depth: int


@dataclass
class AdmissionQueueStats:
    """Counters of one :class:`AdmissionQueue`, current after every offer.

    Attributes:
        offered: Requests presented to the queue.
        queued: Requests accepted (immediate + delayed); ``offered -
            shed``.
        immediate: Accepted requests whose tick still had quota (zero
            delay — the byte-identical underload path).
        delayed: Accepted requests assigned to a later tick.
        shed: Requests rejected because ``capacity`` were already waiting.
        released: Delayed requests whose admission slot has fired.
        total_wait_s: Sum of assigned waits over delayed requests.
        max_wait_s: Largest single assigned wait.
        max_depth: High-water mark of simultaneously waiting requests.
        batches: Drain-tick cohorts (>= 1 admission each), the one
            still filling included.
        max_batch: Largest cohort.
        coalesced: Same-key admissions beyond the first inside a cohort —
            each one is a request the decision memo answers for free.
    """

    offered: int = 0
    queued: int = 0
    immediate: int = 0
    delayed: int = 0
    shed: int = 0
    released: int = 0
    total_wait_s: float = 0.0
    max_wait_s: float = 0.0
    max_depth: int = 0
    batches: int = 0
    max_batch: int = 0
    coalesced: int = 0

    @property
    def mean_wait_s(self) -> float:
        """Mean assigned wait over delayed requests (0.0 when none)."""
        return self.total_wait_s / self.delayed if self.delayed else 0.0

    @property
    def shed_rate(self) -> float:
        """Shed requests over offered, in [0, 1] (0.0 before traffic)."""
        return self.shed / self.offered if self.offered else 0.0


class AdmissionQueue:
    """Bounded deterministic FIFO drained at a fixed service rate.

    Args:
        capacity: Maximum requests waiting at once; arrivals past it are
            shed.  Must be >= 1 (an off switch belongs to the caller —
            :class:`~repro.core.service.ServiceConfig` simply does not
            construct a queue when the knob is 0).
        rate_per_s: Drain rate; ``max(1, int(rate_per_s * tick_s))``
            admissions per tick.
        tick_s: Drain-tick width in simulated seconds.
    """

    def __init__(
        self,
        capacity: int,
        rate_per_s: float = DEFAULT_ADMISSION_RATE_PER_S,
        tick_s: float = DEFAULT_ADMISSION_TICK_S,
    ):
        if capacity < 1:
            raise ReproError(f"queue capacity must be >= 1, got {capacity!r}")
        if rate_per_s <= 0:
            raise ReproError(f"admission rate must be > 0, got {rate_per_s!r}")
        if tick_s <= 0:
            raise ReproError(f"admission tick must be > 0, got {tick_s!r}")
        self.capacity = capacity
        self.rate_per_s = rate_per_s
        self.tick_s = tick_s
        #: Admissions granted per tick; at least one so the queue always
        #: drains even at sub-1/tick rates.
        self.quota_per_tick = max(1, int(rate_per_s * tick_s + 1e-9))
        self.stats = AdmissionQueueStats()
        self._cursor_tick = 0  # tick currently being filled
        self._cursor_used = 0  # admissions already assigned to it
        self._pending = 0  # delayed admissions not yet released
        self._cohort: Set[Hashable] = set()  # keys admitted into _cohort_tick
        self._cohort_tick: Optional[int] = None
        self._cohort_size = 0
        registry = MetricsRegistry(enabled=False)
        self._m_queued = registry.counter("admission.queued", subsystem="service")
        self._m_shed = registry.counter("admission.shed", subsystem="service")
        self._m_wait = registry.histogram("admission.wait_s", subsystem="service")
        self._m_batch = registry.histogram("admission.batch_size", subsystem="service")

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Resolve the ``admission.*`` instruments against a registry."""
        self._m_queued = registry.counter(
            "admission.queued", subsystem="service",
            description="requests accepted by the admission queue",
        )
        self._m_shed = registry.counter(
            "admission.shed", subsystem="service",
            description="requests rejected because the queue was full",
        )
        self._m_wait = registry.histogram(
            "admission.wait_s", subsystem="service",
            description="load-leveling delay assigned per accepted request (s)",
        )
        self._m_batch = registry.histogram(
            "admission.batch_size", subsystem="service",
            description="admissions sharing one drain tick",
        )

    @property
    def depth(self) -> int:
        """Delayed admissions currently waiting for their slot."""
        return self._pending

    def offer(self, now: float, key: Hashable) -> AdmissionSlot:
        """Assign the next drain slot to a request, or shed it.

        Args:
            now: Current simulated time.
            key: The request's decision identity (``(home_uid,
                title_id)``) — used only for cohort coalescing stats.

        Returns:
            The :class:`AdmissionSlot`; the caller must invoke
            :meth:`release` when a *delayed* slot fires.
        """
        self.stats.offered += 1
        if self._pending >= self.capacity:
            self.stats.shed += 1
            self._m_shed.inc()
            return AdmissionSlot(shed=True, admit_at=now, wait_s=0.0, depth=self._pending)
        tick_now = int(now / self.tick_s)
        if self._cursor_tick < tick_now:
            self._cursor_tick = tick_now
            self._cursor_used = 0
        if self._cursor_used >= self.quota_per_tick:
            self._cursor_tick += 1
            self._cursor_used = 0
        self._cursor_used += 1
        depth = self._pending
        self._note_cohort(self._cursor_tick, key)
        tick_start = self._cursor_tick * self.tick_s
        admit_at = tick_start if tick_start > now else now
        wait_s = admit_at - now
        self.stats.queued += 1
        self._m_queued.inc()
        self._m_wait.observe(wait_s)
        if wait_s > 0.0:
            self._pending += 1
            self.stats.delayed += 1
            self.stats.total_wait_s += wait_s
            if wait_s > self.stats.max_wait_s:
                self.stats.max_wait_s = wait_s
            if self._pending > self.stats.max_depth:
                self.stats.max_depth = self._pending
        else:
            self.stats.immediate += 1
        return AdmissionSlot(shed=False, admit_at=admit_at, wait_s=wait_s, depth=depth)

    def release(self) -> None:
        """A delayed admission slot fired; the request left the queue."""
        if self._pending > 0:
            self._pending -= 1
        self.stats.released += 1

    # ------------------------------------------------------------------ #
    def _note_cohort(self, tick: int, key: Hashable) -> None:
        stats = self.stats
        if self._cohort_tick != tick:
            # The size histogram sees a cohort once the next one starts.
            if self._cohort_size:
                self._m_batch.observe(float(self._cohort_size))
            self._cohort.clear()
            self._cohort_size = 0
            self._cohort_tick = tick
            stats.batches += 1
        if key in self._cohort:
            stats.coalesced += 1
        else:
            self._cohort.add(key)
        self._cohort_size += 1
        if self._cohort_size > stats.max_batch:
            stats.max_batch = self._cohort_size
