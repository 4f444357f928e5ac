"""Strip-level distributed caching (the paper's future work, implemented).

The paper: "we could have even better results if the various videos were
stripped not on the hard disks of one server but of different servers
according to the popularity.  This means that the most popular technique
that we have described will not be imposed on whole videos but on video
strips."

Here the DMA's points/least-popular policy runs at *strip* granularity:
each server's cache admits and evicts individual strips (clusters) of
videos, and the VRA routes every strip fetch to the cheapest server
currently holding that strip.  Because all strips of a title accrue points
together but entered the tracker in order, eviction drains a cooling title
from its tail strip backwards — the cache converges to *prefixes* of the
locally popular titles, which is exactly the fractional-knapsack win over
whole-title caching: no capacity is stranded because a whole title did not
fit.

:class:`StripCachingEvaluator` replays a request sequence over a topology
and measures transport cost (megabyte-hops) and byte hit ratios for either
granularity, holding the per-server cache budget constant — the X5
ablation benchmark compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import CacheError, ReproError, TitleUnavailableError
from repro.network.compiled import TopologySnapshot
from repro.network.topology import Topology
from repro.storage.cache import PopularityTracker
from repro.storage.striping import cluster_sizes
from repro.storage.video import VideoTitle


def strip_key(title_id: str, strip_index: int) -> str:
    """Stable identifier for one strip of one title."""
    return f"{title_id}#{strip_index:05d}"


class StripStore:
    """One server's strip cache under the most-popular policy.

    Capacity is byte-oriented; admission follows the Figure 2 shape at
    strip granularity: a strip already resident earns a point; a strip
    that fits is stored; otherwise it earns a point and replaces the least
    popular unpinned strip(s) it now out-scores.

    Args:
        capacity_mb: Cache budget in megabytes.
        evict_until_fits: Keep evicting while the newcomer out-scores the
            next victim and still does not fit (strips are small and
            uniform, so unlike whole titles this almost always ends in a
            store); default True, which is the natural strip-level policy.
    """

    def __init__(self, capacity_mb: float, evict_until_fits: bool = True):
        if not (capacity_mb >= 0.0):
            raise CacheError(f"capacity must be >= 0, got {capacity_mb!r}")
        self.capacity_mb = capacity_mb
        self.evict_until_fits = evict_until_fits
        self.tracker = PopularityTracker()
        self._resident: Dict[str, float] = {}
        self._pinned: Set[str] = set()
        self._used_mb = 0.0

    # ------------------------------------------------------------------ #
    @property
    def used_mb(self) -> float:
        """Bytes currently cached."""
        return self._used_mb

    @property
    def free_mb(self) -> float:
        """Spare cache budget."""
        return max(self.capacity_mb - self._used_mb, 0.0)

    def has(self, key: str) -> bool:
        """True if the strip is resident."""
        return key in self._resident

    def resident_keys(self) -> List[str]:
        """All resident strip keys, sorted."""
        return sorted(self._resident)

    def pin(self, key: str, size_mb: float) -> None:
        """Force a strip resident and exempt from eviction (origin copy).

        Pinned strips do not count against the cache budget — they model
        the origin server's library disk, not its cache.
        """
        if key not in self._resident:
            self._resident[key] = size_mb
        self._pinned.add(key)
        self.tracker.track(key)

    def on_request(self, key: str, size_mb: float) -> bool:
        """One most-popular pass for a requested strip.

        Returns:
            True if the strip is resident after the pass (hit or stored).
        """
        if key in self._resident:
            self.tracker.give_point(key)
            return True
        if size_mb <= self.free_mb + 1e-9:
            self._store(key, size_mb)
            return True
        self.tracker.give_point(key)
        while True:
            candidates = [k for k in self._resident if k not in self._pinned]
            victim = self.tracker.least_popular(candidates)
            if victim is None:
                return False
            if not (self.tracker.points_of(key) > self.tracker.points_of(victim)):
                return False
            self._evict(victim)
            if size_mb <= self.free_mb + 1e-9:
                self._store(key, size_mb)
                return True
            if not self.evict_until_fits:
                return False

    # ------------------------------------------------------------------ #
    def _store(self, key: str, size_mb: float) -> None:
        self._resident[key] = size_mb
        self._used_mb += size_mb
        self.tracker.track(key)

    def _evict(self, key: str) -> None:
        self._used_mb -= self._resident.pop(key)
        self._used_mb = max(self._used_mb, 0.0)


@dataclass
class WorkloadReport:
    """Aggregate outcome of replaying a request sequence.

    Attributes:
        request_count: Requests replayed.
        total_mb: Bytes delivered.
        local_mb: Bytes served from the client's home server.
        megabyte_hops: Sum over strips of size * hop-count (transport cost).
        strip_fetches: Remote strip fetches performed.
        byte_hit_ratio: local_mb / total_mb.
    """

    request_count: int = 0
    total_mb: float = 0.0
    local_mb: float = 0.0
    megabyte_hops: float = 0.0
    strip_fetches: int = 0

    @property
    def byte_hit_ratio(self) -> float:
        """Fraction of delivered bytes served locally."""
        return self.local_mb / self.total_mb if self.total_mb else 0.0


class StripCachingEvaluator:
    """Replays requests under strip- or title-granular most-popular caching.

    Args:
        topology: The network (its current background traffic feeds the
            LVN weights used for server selection).
        catalog: The titles in play.
        origins: title_id -> origin server uid (the permanent copy).
        cluster_mb: Strip size ``c``.
        cache_capacity_mb: Per-server cache budget (origins' permanent
            copies are pinned outside this budget).
        granularity: ``"strip"`` (the future-work policy) or ``"title"``
            (the paper's whole-video DMA at the same budget).
    """

    def __init__(
        self,
        topology: Topology,
        catalog: Sequence[VideoTitle],
        origins: Dict[str, str],
        cluster_mb: float,
        cache_capacity_mb: float,
        granularity: str = "strip",
    ):
        if granularity not in ("strip", "title"):
            raise ReproError(f"granularity must be 'strip' or 'title', got {granularity!r}")
        self._snapshot = TopologySnapshot(topology)
        self._videos = {video.title_id: video for video in catalog}
        self._origins = dict(origins)
        for title_id, origin in self._origins.items():
            topology.node(origin)  # validate
            if title_id not in self._videos:
                raise TitleUnavailableError(f"origin given for unknown title {title_id!r}")
        self._cluster_mb = cluster_mb
        self.granularity = granularity
        self.stores: Dict[str, StripStore] = {
            node.uid: StripStore(cache_capacity_mb) for node in topology.nodes()
        }
        self._strip_sizes: Dict[str, List[float]] = {
            video.title_id: cluster_sizes(video.size_mb, cluster_mb)
            for video in catalog
        }
        for title_id, origin in self._origins.items():
            for index, size in enumerate(self._strip_sizes[title_id]):
                self.stores[origin].pin(strip_key(title_id, index), size)
        self.report = WorkloadReport()

    # ------------------------------------------------------------------ #
    def request(self, home_uid: str, title_id: str) -> float:
        """Deliver one title to a client at ``home_uid``.

        Returns:
            The megabyte-hops this delivery cost.
        """
        video = self._videos.get(title_id)
        if video is None:
            raise TitleUnavailableError(f"unknown title {title_id!r}")
        shortest = self._snapshot.dijkstra(home_uid, self._snapshot.weight_table())
        cost_before = self.report.megabyte_hops
        if self.granularity == "strip":
            self._deliver_strips(home_uid, video, shortest)
        else:
            self._deliver_title(home_uid, video, shortest)
        self.report.request_count += 1
        self.report.total_mb += video.size_mb
        return self.report.megabyte_hops - cost_before

    def replay(self, events: Sequence[Tuple[str, str]]) -> WorkloadReport:
        """Replay (home_uid, title_id) pairs and return the final report."""
        for home_uid, title_id in events:
            self.request(home_uid, title_id)
        return self.report

    def resident_strip_count(self, node_uid: str, title_id: str) -> int:
        """How many strips of a title a node currently holds."""
        store = self.stores[node_uid]
        return sum(
            1
            for index in range(len(self._strip_sizes[title_id]))
            if store.has(strip_key(title_id, index))
        )

    # ------------------------------------------------------------------ #
    def _deliver_strips(self, home_uid: str, video: VideoTitle, shortest) -> None:
        home_store = self.stores[home_uid]
        for index, size in enumerate(self._strip_sizes[video.title_id]):
            key = strip_key(video.title_id, index)
            if home_store.has(key):
                self.report.local_mb += size
            else:
                hops = self._cheapest_holder_hops(key, home_uid, shortest)
                self.report.megabyte_hops += size * hops
                self.report.strip_fetches += 1
            home_store.on_request(key, size)

    def _deliver_title(self, home_uid: str, video: VideoTitle, shortest) -> None:
        """Whole-title granularity: one source for all strips, all-or-
        nothing admission (the paper's original DMA, same budget)."""
        home_store = self.stores[home_uid]
        sizes = self._strip_sizes[video.title_id]
        keys = [strip_key(video.title_id, i) for i in range(len(sizes))]
        if all(home_store.has(key) for key in keys):
            self.report.local_mb += video.size_mb
            for key in keys:
                home_store.tracker.give_point(key)
            return
        full_holders = [
            uid
            for uid, store in self.stores.items()
            if uid != home_uid and all(store.has(key) for key in keys)
        ]
        if not full_holders:
            raise TitleUnavailableError(
                f"no full copy of {video.title_id!r} anywhere (origin lost?)"
            )
        hops = min(
            shortest.path(uid).hop_count
            for uid in full_holders
            if shortest.reaches(uid)
        )
        self.report.megabyte_hops += video.size_mb * hops
        self.report.strip_fetches += len(keys)
        self._title_granular_admission(home_store, keys, sizes)

    def _title_granular_admission(
        self, store: StripStore, keys: List[str], sizes: List[float]
    ) -> None:
        """Figure 2 at title granularity over the strip store."""
        total = sum(sizes)
        if total <= store.free_mb + 1e-9:
            for key, size in zip(keys, sizes):
                store.on_request(key, size)
            return
        for key in keys:
            store.tracker.give_point(key)
        # Evict whole least-popular titles while out-scored, then store.
        while total > store.free_mb + 1e-9:
            candidates = [k for k in store.resident_keys() if k not in store._pinned]
            victim = store.tracker.least_popular(candidates)
            if victim is None:
                return
            if not (store.tracker.points_of(keys[0]) > store.tracker.points_of(victim)):
                return
            victim_title = victim.split("#", 1)[0]
            for resident in [k for k in store.resident_keys() if k.startswith(victim_title + "#")]:
                if resident not in store._pinned:
                    store._evict(resident)
        if total <= store.free_mb + 1e-9:
            # Not all of the title was resident, so none of it was: a title
            # is admitted and evicted whole here.
            for key, size in zip(keys, sizes):
                store._store(key, size)

    def _cheapest_holder_hops(self, key: str, home_uid: str, shortest) -> int:
        holders = [
            uid
            for uid, store in self.stores.items()
            if uid != home_uid and store.has(key)
        ]
        if not holders:
            raise TitleUnavailableError(f"strip {key!r} lost from every server")
        best = min(
            (uid for uid in holders if shortest.reaches(uid)),
            key=lambda uid: (shortest.cost(uid), uid),
            default=None,
        )
        if best is None:
            raise TitleUnavailableError(f"no reachable holder for strip {key!r}")
        return shortest.path(best).hop_count
