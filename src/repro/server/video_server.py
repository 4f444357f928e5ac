"""A video server at one network node.

Combines the striped :class:`~repro.storage.array.DiskArray`, a
:class:`~repro.placement.base.PlacementPolicy` (whole-title DMA by
default) and an :class:`~repro.server.admission.AdmissionController`.
The database is kept in sync through the policy's store/evict/partial
callbacks, so the VRA's "servers that have the video stored" list always
reflects cache contents — fraction aware, full holders first.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.database.records import TitleInfo
from repro.database.store import ServiceDatabase
from repro.errors import StorageError
from repro.obs.registry import NULL_COUNTER, MetricsRegistry
from repro.placement.base import PlacementConfig, PlacementPolicy, PlacementResult
from repro.server.admission import AdmissionController
from repro.storage.array import DiskArray
from repro.storage.video import VideoTitle


class VideoServer:
    """One node's video server.

    Args:
        node_uid: The network node this server runs on.
        database: The shared service database (advertisements flow here).
        disk_count: Number of disks in the array ("we propose the use of as
            many disks as possible").
        disk_capacity_mb: Capacity of each disk.
        cluster_mb: Common striping cluster size ``c``.
        max_streams: Concurrent streams the server will source.
        placement: Declarative placement-policy choice; the default is
            the paper-faithful whole-title DMA.
    """

    def __init__(
        self,
        node_uid: str,
        database: ServiceDatabase,
        disk_count: int,
        disk_capacity_mb: float,
        cluster_mb: float,
        max_streams: int = 32,
        defer_dma_advertisements: bool = True,
        pin_seeded: bool = False,
        placement: PlacementConfig = PlacementConfig(),
    ):
        self.node_uid = node_uid
        self._database = database
        self.array = DiskArray(disk_count, disk_capacity_mb, cluster_mb)
        self.admission = AdmissionController(max_streams)
        self.placement_config = placement
        self.policy: PlacementPolicy = placement.build(
            self.array,
            on_store=self._advertise,
            on_evict=self._withdraw,
            on_partial=self._advertise_partial,
        )
        self._online = True
        #: Monotonic counter of online/offline transitions.  Value-aware:
        #: re-assigning the current value bumps nothing (mirrors the
        #: link/SNMP value-aware write contracts), so crash-recovery
        #: storms that re-kill a dead server are free.
        self._state_version = 0
        #: Optional ``listener(server)`` invoked on each actual
        #: online/offline transition (the fault injector's crash hook).
        self.on_state_change: Optional[Callable[["VideoServer"], None]] = None
        #: Optional listener fired whenever anything feeding this server's
        #: VRA poll answer (:meth:`can_provide`) can move: online state,
        #: title residency/pending downloads, disk health, stream slots.
        #: The service wires it to the VRA epoch memo's token.
        self.on_availability_change: Optional[Callable[[], None]] = None
        self.admission.on_change = self._touch_availability
        self.array.on_change = self._touch_availability
        self.serve_count = 0
        # A title the DMA stores during a request is only *bytes in flight*
        # until that request's own download completes; deferral keeps it out
        # of the catalog (and out of the VRA's holder list) until then.
        self._defer_dma_advertisements = defer_dma_advertisements
        self._seeding = False
        self._pending_advertisements: Set[str] = set()
        #: Seed-pinning extension: when True, titles loaded at
        #: initialisation are exempt from cache eviction, so the network
        #: never loses a title's last copy (Figure 2 alone offers no such
        #: protection — see the failure-injection tests).
        self.pin_seeded = pin_seeded
        # Telemetry instruments; no-ops until attach_metrics() swaps in
        # real counters, so the serving/eviction paths need no guards.
        self._m_serves = NULL_COUNTER
        self._m_dma_stores = NULL_COUNTER
        self._m_dma_evictions = NULL_COUNTER
        self._m_prefix_stores = NULL_COUNTER
        self._registry: Optional[MetricsRegistry] = None

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Resolve this server's telemetry counters from a registry.

        Creates per-server ``server.serves`` / ``server.dma_stores`` /
        ``server.dma_evictions`` / ``placement.prefix_stores`` counters
        and wires the placement policy's instruments (point counter,
        lost-victim counter).  Safe to call on a disabled registry
        (everything stays a no-op).
        """
        self._registry = registry
        labels = {"server": self.node_uid}
        self._m_serves = registry.counter(
            "server.serves", subsystem="server", labels=labels,
            description="streams this server began sourcing",
        )
        self._m_dma_stores = registry.counter(
            "server.dma_stores", subsystem="server", labels=labels,
            description="titles the placement policy stored locally",
        )
        self._m_dma_evictions = registry.counter(
            "server.dma_evictions", subsystem="server", labels=labels,
            description="titles the placement policy evicted",
        )
        self._m_prefix_stores = registry.counter(
            "placement.prefix_stores", subsystem="server", labels=labels,
            description="prefix/partial segments the placement policy stored",
        )
        self._wire_policy_metrics()

    def _wire_policy_metrics(self) -> None:
        """Point the active policy's instruments at the attached registry
        (re-run whenever the policy is swapped)."""
        registry = self._registry
        if registry is None:
            return
        labels = {"server": self.node_uid}
        tracker = getattr(self.policy, "tracker", None)
        if tracker is not None:
            tracker.points_counter = registry.counter(
                "placement.points_awarded", subsystem="server", labels=labels,
                description="popularity points awarded by the placement policy",
            )
        if hasattr(self.policy, "lost_victim_counter"):
            self.policy.lost_victim_counter = registry.counter(
                "placement.lost_victims", subsystem="server", labels=labels,
                description="eviction passes that deleted victim(s) without "
                "storing the newcomer",
            )

    # ------------------------------------------------------------------ #
    # operational state
    # ------------------------------------------------------------------ #
    @property
    def online(self) -> bool:
        """Administrative/operational state; False while crashed."""
        return self._online

    @online.setter
    def online(self, value: bool) -> None:
        value = bool(value)
        if value == self._online:
            return
        self._online = value
        self._state_version += 1
        self._touch_availability()
        if self.on_state_change is not None:
            self.on_state_change(self)

    def _touch_availability(self) -> None:
        if self.on_availability_change is not None:
            self.on_availability_change()

    @property
    def state_version(self) -> int:
        """Counter of online/offline transitions on this server."""
        return self._state_version

    # ------------------------------------------------------------------ #
    # cache-policy plumbing
    # ------------------------------------------------------------------ #
    @property
    def dma(self) -> PlacementPolicy:
        """Historical name for the active placement policy (the default
        policy *is* the paper's DMA, so existing call sites read on)."""
        return self.policy

    @dma.setter
    def dma(self, policy: PlacementPolicy) -> None:
        self.policy = policy
        self._wire_policy_metrics()

    def set_cache_policy(self, factory) -> None:
        """Swap the placement policy for a baseline cache policy.

        Args:
            factory: Callable ``factory(array, on_store, on_evict)``
                returning an object with the policy surface
                (``on_request``, ``seed``) — e.g. the classes in
                :mod:`repro.baselines.caching`.  Must be called before any
                titles are seeded or requested, so the old policy holds no
                state worth migrating.
        """
        self.dma = factory(self.array, self._advertise, self._withdraw)

    # ------------------------------------------------------------------ #
    # catalog
    # ------------------------------------------------------------------ #
    def seed_title(self, video: VideoTitle) -> None:
        """Initialisation-phase load of a title declared by the admins.

        Registers the title in the global catalog if needed, stores it on
        the array and advertises it.

        Raises:
            StorageError: If the video does not fit on the array.
        """
        self._register_catalog_info(video)
        self._seeding = True
        try:
            self.dma.seed(video)
        finally:
            self._seeding = False
        if self.pin_seeded:
            self.dma.pinned.add(video.title_id)

    def has_title(self, title_id: str) -> bool:
        """True if the full title is resident and servable (a DMA store
        whose download is still in flight, or a title with clusters on a
        failed disk, does not count)."""
        return (
            self.array.is_servable(title_id)
            and title_id not in self._pending_advertisements
        )

    def stored_title_ids(self) -> List[str]:
        """Locally resident title ids, sorted."""
        return self.array.stored_title_ids()

    def serves_segment(self, title_id: str) -> bool:
        """True when this server can source at least the leading clusters
        of the title — a full servable copy or a healthy prefix segment."""
        return self.has_title(title_id) or self.array.segment_servable(title_id)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def can_provide(self, title_id: str) -> bool:
        """The VRA poll answer: online, title resident, slot available."""
        return self.online and self.has_title(title_id) and self.admission.has_capacity

    def begin_serving(self, title_id: str) -> int:
        """Admit one outgoing stream of a resident title.

        Returns:
            The admission lease to release when the stream ends.

        Raises:
            StorageError: If the title is not resident (neither a full
                servable copy nor a prefix segment).
            AdmissionError: If the server is at stream capacity.
        """
        if not self.serves_segment(title_id):
            raise StorageError(
                f"server {self.node_uid!r} asked to serve non-resident "
                f"title {title_id!r}"
            )
        lease = self.admission.admit()
        self.serve_count += 1
        self._m_serves.inc()
        return lease

    def end_serving(self, lease: int) -> None:
        """Release a stream slot taken by :meth:`begin_serving`."""
        self.admission.release(lease)

    # ------------------------------------------------------------------ #
    # placement entry point
    # ------------------------------------------------------------------ #
    def on_download_begins(self, video: VideoTitle) -> PlacementResult:
        """Figure 2 trigger: "Server has begun downloading a video".

        Called by the service whenever a client attached to this server
        requests ``video`` (whether it is then served locally or fetched
        from a remote server, the local server sees the download).  Runs
        one pass of the active placement policy.
        """
        self._register_catalog_info(video)
        return self.policy.on_request(video)

    def commit_download(self, title_id: str) -> None:
        """The deferred download of ``title_id`` completed: advertise it."""
        if title_id in self._pending_advertisements:
            self._pending_advertisements.discard(title_id)
            self._touch_availability()
            self._database.add_title_to_server(self.node_uid, title_id)

    def abort_download(self, title_id: str) -> None:
        """The deferred download failed: drop the partial bytes silently."""
        if title_id in self._pending_advertisements:
            self._pending_advertisements.discard(title_id)
            self._touch_availability()
            if self.array.has_video(title_id):
                self.array.remove(title_id)
            if self._database.holds_title(self.node_uid, title_id):
                # A fractional policy promoted a previously-advertised
                # prefix to a full store; the full bytes are gone, so the
                # stale prefix advertisement goes with them.
                self._database.remove_title_from_server(self.node_uid, title_id)

    def pending_title_ids(self) -> List[str]:
        """Titles stored by the DMA whose downloads are still in flight."""
        return sorted(self._pending_advertisements)

    # ------------------------------------------------------------------ #
    def _register_catalog_info(self, video: VideoTitle) -> None:
        self._database.register_title(
            TitleInfo(
                title_id=video.title_id,
                name=video.name,
                size_mb=video.size_mb,
                duration_s=video.duration_s,
                bitrate_mbps=video.bitrate_mbps,
            )
        )

    def _advertise(self, title_id: str) -> None:
        self._m_dma_stores.inc()
        self._touch_availability()
        if self._defer_dma_advertisements and not self._seeding:
            self._pending_advertisements.add(title_id)
        else:
            self._database.add_title_to_server(self.node_uid, title_id)

    def _advertise_partial(self, title_id: str, fraction: float) -> None:
        """Advertise a prefix/partial segment, fraction aware and
        immediately — segment fills are modelled as instantaneous
        background transfers, and the VRA's full-holder filter keeps
        remote requests away regardless."""
        self._m_prefix_stores.inc()
        self._touch_availability()
        self._database.add_title_to_server(self.node_uid, title_id, fraction=fraction)

    def _withdraw(self, title_id: str) -> None:
        self._m_dma_evictions.inc()
        self._touch_availability()
        if title_id in self._pending_advertisements:
            # Evicted before its download finished: it was never advertised
            # as a full copy — but a fractional policy may have advertised
            # the prefix it grew from.
            self._pending_advertisements.discard(title_id)
            if self._database.holds_title(self.node_uid, title_id):
                self._database.remove_title_from_server(self.node_uid, title_id)
        else:
            self._database.remove_title_from_server(self.node_uid, title_id)

    def __repr__(self) -> str:
        return (
            f"VideoServer({self.node_uid!r}, titles={len(self.stored_title_ids())}, "
            f"streams={self.admission.active_count}/{self.admission.max_streams})"
        )
