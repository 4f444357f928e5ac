"""Mid-stream session failover.

The paper's mid-stream switching only fires at scheduled cluster
boundaries.  The :class:`SessionSupervisor` closes the gap between
boundaries: it keeps an index of every active transfer segment keyed by
serving server and by the links of its delivery path, and the moment a
fault hits one of those resources (server crash, disk failure, path link
offline) it *preempts* the transfer — the transfer cancels its pending
step event and settles the cut step in a zero-delay ``poke:`` event — so
the session re-runs the VRA immediately and migrates the remainder of
the cluster to a surviving holder instead of stalling until the boundary
(or dying).

A session under failover fails only when no full copy of its title
remains registered anywhere — transient outages (crashed holders that
will recover, saturated stream slots, congested paths) are ridden out
with backoff instead.  Every fail verdict lands in :attr:`failed_log`
with the simulated timestamp; since a lost last copy implies no *online*
full holder either, the property suite can check every entry against
the stronger invariant.

All bookkeeping is plain dicts keyed in insertion order and driven by
the simulation clock, so seeded chaos runs replay bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.database.store import ServiceDatabase
from repro.network.feed import DISK, SERVER, STATE
from repro.network.link import Link
from repro.obs.registry import MetricsRegistry
from repro.server.video_server import VideoServer
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # import cycle: session takes the supervisor as a param
    from repro.core.session import _Transfer


class SessionSupervisor:
    """Index of active transfers by the resources currently serving them.

    The service constructs one when ``ServiceConfig.session_failover`` is
    on; it subscribes to the database's change feed for the fault events
    (``SERVER`` and ``STATE`` flips, ``DISK`` deaths), whoever applies
    them.  Sessions call :meth:`track` / :meth:`untrack` around each
    transfer segment — the transfer carries the server uid and the link
    tuple it already resolved — and use the supervisor as their
    failover-control surface (:meth:`holder_exists`,
    :meth:`note_failover`, :meth:`note_failed`).

    Args:
        sim: The simulation engine.
        servers: The service's servers by node uid.
        database: The service database (full-holder lookups); its
            change feed is the one subscribed to.
        registry: Telemetry registry for the ``resilience.*`` instruments
            (deterministic counters below are what reports read).
    """

    def __init__(
        self,
        sim: Simulator,
        servers: Dict[str, VideoServer],
        database: ServiceDatabase,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._sim = sim
        self._servers = servers
        self._database = database
        #: In-flight segments by serving server and by path link name;
        #: the buckets are insertion-ordered sets.
        self._by_server: Dict[str, Dict["_Transfer", None]] = {}
        self._by_link: Dict[str, Dict["_Transfer", None]] = {}
        #: Deterministic counters and logs (reports + property suites).
        self.preemption_count = 0
        self.failover_count = 0
        self.failed_count = 0
        self.stall_log: List[float] = []
        #: One entry per session failed for want of an online full holder:
        #: ``{"at_s", "title_id", "reason"}``, chronological.
        self.failed_log: List[Dict[str, object]] = []
        registry = registry if registry is not None else MetricsRegistry(enabled=False)
        self._m_preemptions = registry.counter(
            "resilience.preemptions", subsystem="resilience",
            description="transfer segments preempted by a fault on their path",
        )
        self._m_failovers = registry.counter(
            "resilience.failovers", subsystem="resilience",
            description="mid-stream migrations to a surviving holder",
        )
        self._m_failover_stall = registry.histogram(
            "resilience.failover_stall_s", subsystem="resilience",
            description="stall seconds per mid-stream failover",
        )
        self._m_failed = registry.counter(
            "resilience.failover_failed", subsystem="resilience",
            description="sessions failed with no online full holder left",
        )
        feed = database.feed
        feed.subscribe(SERVER, self.on_server_state)
        feed.subscribe(STATE, self.on_link_state)
        feed.subscribe(DISK, self.on_disk_failure)

    # ------------------------------------------------------------------ #
    # segment index (session call sites)
    # ------------------------------------------------------------------ #
    def track(self, transfer: "_Transfer") -> None:
        """Index a transfer segment by its source server and path links."""
        self._by_server.setdefault(transfer.server_uid, {})[transfer] = None
        for link in transfer.links:
            self._by_link.setdefault(link.name, {})[transfer] = None

    def untrack(self, transfer: "_Transfer") -> None:
        """Drop the segment's index entries (segment over)."""
        self._drop(self._by_server, transfer.server_uid, transfer)
        for link in transfer.links:
            self._drop(self._by_link, link.name, transfer)

    @staticmethod
    def _drop(index: Dict[str, Dict["_Transfer", None]], key: str, transfer) -> None:
        bucket = index.get(key)
        if bucket is not None:
            bucket.pop(transfer, None)
            if not bucket:
                del index[key]

    @property
    def tracked_count(self) -> int:
        """Active transfer segments currently indexed."""
        return sum(len(bucket) for bucket in self._by_server.values())

    # ------------------------------------------------------------------ #
    # fault-event intake (change-feed subscribers)
    # ------------------------------------------------------------------ #
    def on_server_state(self, server: VideoServer) -> None:
        """A server flipped online state; preempt its sessions if down."""
        if server.online:
            return
        self._preempt_bucket(
            self._by_server.get(server.node_uid), f"server:{server.node_uid}"
        )

    def on_link_state(self, changed: object) -> None:
        """The topology changed; preempt a downed link's path users (a
        new node or link carries no transfer yet)."""
        if not isinstance(changed, Link) or changed.online:
            return
        self._preempt_bucket(self._by_link.get(changed.name), f"link:{changed.name}")

    def on_disk_failure(self, server: VideoServer) -> None:
        """A disk died; preempt sessions whose title it made unservable."""
        bucket = self._by_server.get(server.node_uid)
        if not bucket:
            return
        for transfer in list(bucket):
            if not server.has_title(transfer.title_id):
                self._preempt(transfer, f"disk:{server.node_uid}")

    def _preempt_bucket(
        self, bucket: Optional[Dict["_Transfer", None]], reason: str
    ) -> None:
        if not bucket:
            return
        for transfer in list(bucket):
            self._preempt(transfer, reason)

    def _preempt(self, transfer: "_Transfer", reason: str) -> None:
        transfer.preempt(reason)
        self.preemption_count += 1
        self._m_preemptions.inc()

    # ------------------------------------------------------------------ #
    # failover-control surface (session call sites)
    # ------------------------------------------------------------------ #
    def holder_exists(self, title_id: str) -> bool:
        """Is a full copy of the title still registered anywhere?

        The session's fail-or-wait verdict: a routing failure while a
        full holder remains (crashed but recovering, slots full, path
        congested) is transient — keep stalling.  Only when the last
        full copy is gone does the session fail (and the verdict is
        logged); by then :meth:`holder_online` is necessarily False
        too, which is the invariant the property suite checks.
        """
        return bool(self._database.full_holders(title_id))

    def holder_online(self, title_id: str) -> bool:
        """Does any online, servable full holder exist right now?

        Strictly stronger than :meth:`holder_exists`; the property
        suite asserts no session ever failed at an instant this was
        True.
        """
        for uid in self._database.full_holders(title_id):
            server = self._servers.get(uid)
            if server is not None and server.online and server.has_title(title_id):
                return True
        return False

    def note_failover(self, stall_s: float) -> None:
        """A session migrated mid-stream after ``stall_s`` of stall."""
        self.failover_count += 1
        self.stall_log.append(stall_s)
        self._m_failovers.inc()
        self._m_failover_stall.observe(stall_s)

    def note_failed(self, title_id: str, reason: str) -> None:
        """A session is about to fail: no online full holder remained."""
        self.failed_count += 1
        self.failed_log.append(
            {"at_s": self._sim.now, "title_id": title_id, "reason": reason}
        )
        self._m_failed.inc()
