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

A session whose re-decide fails *parks* on the change feed
(:meth:`SessionSupervisor.stall`) instead of polling: the supervisor
keeps a waiter index by title, by the holders of the stalled cluster
whose poll answer was no, and of the partitioned waiters, and wakes a
waiter with one zero-delay ``signal:`` event when an input moves that
can end its failure — a watched holder's poll answer turns yes, a link
comes online (a partition only), or the title's holder set changes.  So
a stall lasts exactly as long as the outage.  A session fails only when no full copy of its title
remains registered anywhere; transient outages (crashed holders that
will recover, saturated stream slots, severed paths) are waited out.
Every fail verdict lands in :attr:`failed_log` with the simulated
timestamp; since a lost last copy implies no *online* full holder
either, the property suite can check every entry against the stronger
invariant.

All bookkeeping is plain dicts keyed in insertion order and driven by
the simulation clock, so seeded chaos runs replay bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.database.store import ServiceDatabase
from repro.errors import NoReachableHolderError, ReproError, RoutingError
from repro.network.feed import AVAILABILITY, DISK, LOCATIONS, SERVER, STATE
from repro.network.link import Link
from repro.obs.registry import MetricsRegistry
from repro.server.video_server import VideoServer
from repro.sim.engine import Simulator
from repro.sim.process import Park, Process

if TYPE_CHECKING:  # import cycle: session takes the supervisor as a param
    from repro.core.session import _Transfer


class _Stall(Park):
    """A failover stall parked on the change feed (:meth:`SessionSupervisor.stall`).

    Attributes:
        title_id: The session's title.
        watched: ``(uid, cluster)`` of each holder of the stalled cluster
            whose answer turning yes can end the failure: the ones whose
            poll said no.  ``cluster`` is what the poll asks about: the
            cluster index when a partial copy covers it, else None (the
            whole title, and the full holders only).  A holder that
            arrives comes with a holder-list move.
        partitioned: The decide found holders but no path to them, so a
            link coming online can end it too.
        reason, message: The stall's cause and the text of the routing
            error that parked it (the fail verdict quotes both; the
            error itself is not kept, nor the frames its traceback holds).
        process: The parked process (set when it parks).
    """

    __slots__ = ("_supervisor", "title_id", "watched", "partitioned", "reason", "message", "process")

    def __init__(
        self,
        supervisor: "SessionSupervisor",
        title_id: str,
        watched: Tuple[Tuple[str, Optional[int]], ...],
        partitioned: bool,
        reason: str,
        message: str,
    ):
        self._supervisor = supervisor
        self.title_id = title_id
        self.watched = watched
        self.partitioned = partitioned
        self.reason = reason
        self.message = message
        self.process: Optional[Process] = None

    def _park(self, process: Process) -> None:
        self.process = process
        self._supervisor._index(self)


class SessionSupervisor:
    """Index of active transfers by the resources currently serving them.

    The service constructs one when ``ServiceConfig.session_failover`` is
    on; it subscribes to the database's change feed for the fault events
    (``SERVER`` and ``STATE`` flips, ``DISK`` deaths), whoever applies
    them, and for the inputs that can end a stall (``AVAILABILITY``,
    ``STATE``, ``LOCATIONS``).  Sessions call :meth:`track` /
    :meth:`untrack` around each transfer segment — the transfer carries
    the server uid and the link tuple it already resolved — and use the
    supervisor as their failover-control surface (:meth:`stall`,
    :meth:`discard`, :meth:`note_stall_decide`, :meth:`note_failover`).

    Args:
        sim: The simulation engine.
        servers: The service's servers by node uid.
        database: The service database (full-holder lookups); its
            change feed is the one subscribed to.
        holders_of: ``(title_id, cluster) -> (holders, asked)``: the
            holders a decide for that cluster polls and the cluster
            their poll is asked about (None: the whole title) — the
            service's rule, so a stall watches exactly what it decided
            over.
        registry: Telemetry registry for the ``resilience.*`` instruments
            (deterministic counters below are what reports read).
    """

    def __init__(
        self,
        sim: Simulator,
        servers: Dict[str, VideoServer],
        database: ServiceDatabase,
        holders_of: Callable[[str, int], Tuple[Tuple[str, ...], Optional[int]]],
        registry: Optional[MetricsRegistry] = None,
    ):
        self._sim = sim
        self._servers = servers
        self._database = database
        self._holders_of = holders_of
        #: In-flight segments by serving server and by path link name;
        #: the buckets are insertion-ordered sets.
        self._by_server: Dict[str, Dict["_Transfer", None]] = {}
        self._by_link: Dict[str, Dict["_Transfer", None]] = {}
        #: Parked stalls in park order, and the same stalls by title, by
        #: watched server uid and then by what it must answer for them
        #: (``(title_id, cluster)``, one test per group), and the
        #: partitioned ones.
        self._waiters: Dict[_Stall, None] = {}
        self._by_title: Dict[str, Dict[_Stall, None]] = {}
        self._by_watched: Dict[str, Dict[Tuple[str, Optional[int]], Dict[_Stall, None]]] = {}
        self._partitioned: Dict[_Stall, None] = {}
        #: Deterministic counters and logs (reports + property suites).
        self.preemption_count = 0
        self.failover_count = 0
        self.failed_count = 0
        #: Wake-ups sent to parked stalls, and the decides stalled
        #: sessions ran after a failure (never more than the wake-ups).
        self.wakeups = 0
        self.stall_decides = 0
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
        feed.subscribe(AVAILABILITY, self.on_availability)
        feed.subscribe(LOCATIONS, self.on_locations)

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
    def _drop(index: Dict[object, Dict[object, None]], key: object, item: object) -> None:
        bucket = index.get(key)
        if bucket is not None:
            bucket.pop(item, None)
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
        """The topology changed: a link that came online (or joined) wakes
        the partitioned stalls, a downed link preempts its path users (a
        joined node carries no transfer and reconnects nothing by itself)."""
        if isinstance(changed, Link):
            if changed.online:
                self._wake_all(self._partitioned)
            else:
                self._preempt_bucket(self._by_link.get(changed.name), f"link:{changed.name}")

    def on_disk_failure(self, server: VideoServer) -> None:
        """A disk died; preempt sessions whose title (a partial copy's:
        whose cluster) it made unservable."""
        bucket = self._by_server.get(server.node_uid)
        if not bucket:
            return
        for transfer in list(bucket):
            if not server.has_title(transfer.title_id, transfer.cluster):
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
    # stall wake-ups (change-feed subscribers)
    # ------------------------------------------------------------------ #
    def on_availability(self, server: VideoServer) -> None:
        """A server's poll answer may have moved: wake the stalls watching
        it for a title (or a cluster) it can now provide."""
        groups = self._by_watched.get(server.node_uid)
        if not groups:
            return
        for (title_id, cluster), bucket in list(groups.items()):
            if server.can_provide(title_id, cluster):
                self._wake_all(bucket)

    def on_locations(self, title_id: str) -> None:
        """A title's holder list moved: wake its stalls, or fail them at
        this instant if that removed the last full copy."""
        bucket = self._by_title.get(title_id)
        if not bucket:
            return
        if self.holder_exists(title_id):
            self._wake_all(bucket)
            return
        for stall in list(bucket):
            self._wake(stall, self._lost(stall.title_id, stall.reason, stall.message))

    def _wake_all(self, bucket: Dict[_Stall, None]) -> None:
        for stall in list(bucket):
            self._wake(stall)

    def _wake(self, stall: _Stall, error: Optional[ReproError] = None) -> None:
        """Resume a parked stall in one zero-delay ``signal:`` event, to
        decide again or, given the fail verdict's ``error``, to raise it.
        The stall leaves the index, so a second input moving at this
        instant sends it no second wake-up."""
        self._unindex(stall)
        if error is None:
            self.wakeups += 1
        process = stall.process
        process._pending_handle = self._sim.schedule(
            0.0, process._resume, error, error is not None, name=f"signal:{process.name}"
        )

    def _index(self, stall: _Stall) -> None:
        title_id = stall.title_id
        self._waiters[stall] = None
        self._by_title.setdefault(title_id, {})[stall] = None
        for uid, cluster in stall.watched:
            self._by_watched.setdefault(uid, {}).setdefault((title_id, cluster), {})[stall] = None
        if stall.partitioned:
            self._partitioned[stall] = None

    def _unindex(self, stall: _Stall) -> None:
        if stall not in self._waiters:
            return
        del self._waiters[stall]
        self._drop(self._by_title, stall.title_id, stall)
        for uid, cluster in stall.watched:
            groups = self._by_watched[uid]
            self._drop(groups, (stall.title_id, cluster), stall)
            if not groups:
                del self._by_watched[uid]
        self._partitioned.pop(stall, None)

    # ------------------------------------------------------------------ #
    # failover-control surface (session call sites)
    # ------------------------------------------------------------------ #
    def stall(
        self, title_id: str, cluster: int, error: RoutingError, reason: str
    ) -> _Stall:
        """Fail-or-wait after a decide for ``cluster`` raised ``error``:
        the stall a session yields to park until an input that can end
        this failure moves.

        The stall watches the holders the decide polled (``holders_of``)
        whose poll said no.

        Args:
            title_id: The session's title.
            cluster: The index of the cluster the decide was for.
            error: The routing error the decide raised.
            reason: The stall's cause (a preemption's, or ``boundary``).

        Raises:
            ReproError: No full copy of the title is registered any more;
                the verdict is logged (:meth:`note_failed`).
        """
        if not self.holder_exists(title_id):
            raise self._lost(title_id, reason, str(error)) from error
        holders, asked = self._holders_of(title_id, cluster)
        servers = self._servers
        watched = tuple(
            (uid, asked) for uid in holders if not servers[uid].can_provide(title_id, asked)
        )
        return _Stall(
            self, title_id, watched, isinstance(error, NoReachableHolderError),
            reason, str(error),
        )

    def discard(self, stall: _Stall) -> None:
        """The stall's session resumed or closed: forget it (a no-op once
        a wake-up or a fail verdict took it out of the index)."""
        self._unindex(stall)

    def _lost(self, title_id: str, reason: str, message: str) -> ReproError:
        """Log the fail verdict and build the session's error."""
        self.note_failed(title_id, reason)
        return ReproError(
            f"failover ({reason}): no full holder of title {title_id!r} remains: {message}"
        )

    def holder_exists(self, title_id: str) -> bool:
        """Is a full copy of the title still registered anywhere?

        The fail-or-wait verdict: a routing failure while a full holder
        remains (crashed but recovering, slots full, path severed) is
        transient — the session stalls.  Only when the last full copy is
        gone does the session fail (and the verdict is logged); by then
        :meth:`holder_online` is necessarily False too, which is the
        invariant the property suite checks.
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

    def note_stall_decide(self) -> None:
        """A woken stall is about to decide again."""
        self.stall_decides += 1

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
