"""The placement-policy contract: what each server stores, and when.

The paper's DMA caches *whole* titles only.  The related work (optimal
prefix replication across a proxy cluster, arXiv 1003.4049;
popularity-proportional partial caching) places *fractions* of titles, so
the storage seam is generalised here:

* :class:`PlacementResult` — the unified outcome of one placement pass.
  It subsumes the historical ``DmaResult`` (same fields, same semantics)
  and adds :attr:`PlacementResult.resident_fraction`, the fraction of the
  title resident locally after the pass (1.0 for whole-title hits/stores,
  0 < f < 1 for prefix segments, 0.0 when nothing is kept).
* :class:`PlacementPolicy` — the ABC every policy implements.  The
  service and :class:`~repro.server.video_server.VideoServer` talk only
  to this interface; concrete policies live in
  :mod:`repro.placement.whole_title`, :mod:`repro.placement.prefix` and
  :mod:`repro.placement.partial`.
* :class:`PlacementConfig` — one declarative config object
  (``ServiceConfig.placement`` / ``--placement`` on the CLI) replacing
  the ad-hoc DMA kwargs; :meth:`PlacementConfig.build` is the factory
  the server calls.

Every policy routes stores and evictions through the same hooks the DMA
used (``on_store`` / ``on_evict``), plus ``on_partial`` for prefix
segments — partial residency is advertised to the database *fraction
aware*, so a segment is a holder of exactly the clusters it covers.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ServiceError
from repro.obs.registry import NULL_COUNTER
from repro.storage.array import DiskArray
from repro.storage.cache import PopularityTracker
from repro.storage.video import VideoTitle

#: Valid ``PlacementConfig.kind`` values: the paper's DMA, the two
#: fractional policies (X11) and the cache baselines (X2).
PLACEMENT_KINDS: Tuple[str, ...] = (
    "dma", "prefix", "partial", "dma-greedy", "nocache", "lru", "fullrep",
)

StoreHook = Optional[Callable[[str], None]]
PartialHook = Optional[Callable[[str, float], None]]


class PlacementAction(enum.Enum):
    """What one placement pass did (superset of the Figure 2 branches)."""

    #: Video was already fully cached; it received a point.
    HIT = "hit"
    #: Video fit immediately and was written to the disks.
    STORED = "stored"
    #: Video did not earn (more) local storage on this pass.
    POINT_ONLY = "point_only"
    #: A victim was evicted and the video was written.
    REPLACED = "replaced"
    #: Victim(s) evicted, yet the video still did not fit.
    EVICTED_NOT_STORED = "evicted_not_stored"
    #: A leading segment (prefix) of the video was written; the suffix
    #: streams from the holders of each later cluster.
    PREFIX_STORED = "prefix_stored"


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of one placement pass.

    Subsumes the historical ``DmaResult`` — the first five fields carry
    the exact Figure 2 semantics — and adds the fractional-residency
    outcome of prefix/partial policies.

    Attributes:
        title_id: The requested video.
        action: Which branch executed.
        points: The video's popularity points after the pass.
        evicted: Title ids removed from the cache by this pass.
        cached: True if the *full* video is on disk after the pass.
        resident_fraction: Fraction of the video resident locally after
            the pass: 1.0 when ``cached``, 0 < f < 1 for a prefix
            segment, 0.0 otherwise.
    """

    title_id: str
    action: PlacementAction
    points: int
    evicted: Tuple[str, ...] = ()
    cached: bool = False
    resident_fraction: float = 0.0


class PlacementPolicy(abc.ABC):
    """What a video server stores locally, decided per request.

    One instance runs per server, bound to that server's
    :class:`~repro.storage.array.DiskArray`.  Subclasses implement
    :meth:`_pass` (the per-request placement step for a title not fully
    resident); the public :meth:`on_request` template holds the HIT
    branch, the pass counting and the hit/prefix-hit tallies every policy
    shares.

    Args:
        array: The server's striped disk array.
        tracker: Popularity state; a fresh tracker is created if omitted.
        on_store: Callback invoked with a title id after a *full* copy is
            written (the server advertises the title in the database).
        on_evict: Callback invoked with a title id after it is deleted
            (the server withdraws the advertisement).
        on_partial: Callback invoked with ``(title_id, fraction)`` after
            a prefix segment is written or extended (the server
            advertises the title fraction-aware).
    """

    def __init__(
        self,
        array: DiskArray,
        tracker: Optional[PopularityTracker] = None,
        on_store: StoreHook = None,
        on_evict: StoreHook = None,
        on_partial: PartialHook = None,
    ):
        self.array = array
        self.tracker = tracker if tracker is not None else PopularityTracker()
        self._on_store = on_store
        self._on_evict = on_evict
        self._on_partial = on_partial
        self.pass_count = 0
        self.hit_count = 0
        #: Requests that found a prefix segment (not the full title)
        #: already resident when they arrived.
        self.prefix_hit_count = 0
        self.eviction_count = 0
        #: Passes whose eviction branch deleted victim(s) without managing
        #: to store the newcomer (the Figure 2 "lost victim" hazard).
        self.lost_victims = 0
        #: Telemetry counter behind :attr:`lost_victims`; the server wires
        #: ``placement.lost_victims`` here, no-op until then.
        self.lost_victim_counter = NULL_COUNTER
        #: Per-action pass tallies, keyed by ``PlacementAction.value``.
        self.action_counts: Dict[str, int] = {}
        #: Title ids exempt from eviction.  Figure 2 has no such notion —
        #: it will happily delete the only copy of a title in the whole
        #: network — so this set is empty unless the deployment opts into
        #: the seed-pinning extension (ServiceConfig.pin_seeded_titles).
        self.pinned: Set[str] = set()

    # ------------------------------------------------------------------ #
    # the contract
    # ------------------------------------------------------------------ #
    def on_request(self, video: VideoTitle) -> PlacementResult:
        """Run one placement pass for a video the server begins serving.

        A fully resident title is a HIT under every policy: it receives a
        point and nothing else moves.  Any other request runs the
        policy's :meth:`_pass`.
        """
        self.pass_count += 1
        title_id = video.title_id
        if self.array.has_video(title_id):
            self.hit_count += 1
            result = PlacementResult(
                title_id=title_id,
                action=PlacementAction.HIT,
                points=self.tracker.give_point(title_id),
                cached=True,
                resident_fraction=1.0,
            )
        else:
            resident = self.array.resident_fraction(title_id)
            if resident > 0.0:
                self.prefix_hit_count += 1
            result = self._pass(video, resident)
        self.action_counts[result.action.value] = (
            self.action_counts.get(result.action.value, 0) + 1
        )
        return result

    @abc.abstractmethod
    def _pass(self, video: VideoTitle, resident: float) -> PlacementResult:
        """One policy-specific placement step for a title that is not
        fully resident (called by :meth:`on_request`, which read the
        title's ``resident`` fraction once for the whole pass)."""

    def seed(self, video: VideoTitle) -> None:
        """Pre-load a full copy outside the request loop (service
        initialisation: "The video titles available on each VoD server").

        Raises:
            StorageError: If the video does not fit.
        """
        self.array.store(video)
        self.tracker.track(video.title_id)
        self._note_store(video.title_id)

    # ------------------------------------------------------------------ #
    # shared helpers / introspection
    # ------------------------------------------------------------------ #
    def cached_title_ids(self) -> List[str]:
        """Ids currently fully cached on the array, sorted."""
        return self.array.stored_title_ids()

    def points_of(self, title_id: str) -> int:
        """Current popularity points of a title."""
        return self.tracker.points_of(title_id)

    def _store(self, video: VideoTitle) -> None:
        self.array.store(video)
        self.tracker.track(video.title_id)
        self._note_store(video.title_id)

    def _evict(self, title_id: str) -> None:
        self.array.remove(title_id)
        self.eviction_count += 1
        if self._on_evict is not None:
            self._on_evict(title_id)

    def _note_store(self, title_id: str) -> None:
        if self._on_store is not None:
            self._on_store(title_id)

    def _note_partial(self, title_id: str, fraction: float) -> None:
        if self._on_partial is not None:
            self._on_partial(title_id, fraction)


class FractionalPlacementPolicy(PlacementPolicy):
    """Shared machinery of the fraction-aware policies (prefix, partial).

    Subclasses decide *how much* of a title to keep (a target fraction in
    (0, 1]); this base turns that target into disk operations: evicting
    less-popular residents for room (full copies and segments alike, the
    same points comparison Figure 2 uses) and storing/extending the
    leading segment through :meth:`DiskArray.store_segment`.
    """

    def _make_room(self, video: VideoTitle, fraction: float) -> List[str]:
        """Evict less-popular unpinned residents until the segment fits.

        Mirrors the DMA's comparison — a victim is only deleted while the
        newcomer's points strictly exceed the victim's — but, like the
        greedy DMA (``--placement dma-greedy``), keeps going until the segment
        fits or no qualifying victim remains.
        """
        evicted: List[str] = []
        candidates = (
            set(self.array.resident_title_ids()) - self.pinned - {video.title_id}
        )
        points = self.tracker.points_of(video.title_id)
        while not self.array.can_store_segment(video, fraction):
            victim = self.tracker.least_popular(candidates)
            if victim is None:
                break
            if not (points > self.tracker.points_of(victim)):
                break
            self._evict(victim)
            candidates.discard(victim)
            evicted.append(victim)
        if evicted and not self.array.can_store_segment(video, fraction):
            self.lost_victims += 1
            self.lost_victim_counter.inc()
        return evicted

    def _admit_fraction(
        self,
        video: VideoTitle,
        fraction: float,
        points: int,
        evicted: List[str],
        resident: float,
    ) -> PlacementResult:
        """Store/extend the leading segment and report the outcome
        (``resident``: the title's fraction before the pass, which
        evicting other titles leaves as it was)."""
        title_id = video.title_id
        if not self.array.can_store_segment(video, fraction):
            action = (
                PlacementAction.EVICTED_NOT_STORED
                if evicted
                else PlacementAction.POINT_ONLY
            )
            return PlacementResult(
                title_id=title_id,
                action=action,
                points=points,
                evicted=tuple(evicted),
                cached=False,
                resident_fraction=resident,
            )
        achieved = self.array.store_segment(video, fraction)
        if self.array.has_video(title_id):
            # The segment covered every cluster: this is a whole-title
            # store, advertised through the deferred-download path exactly
            # like a DMA store.
            self.tracker.track(title_id)
            self._note_store(title_id)
            action = PlacementAction.REPLACED if evicted else PlacementAction.STORED
            return PlacementResult(
                title_id=title_id,
                action=action,
                points=points,
                evicted=tuple(evicted),
                cached=True,
                resident_fraction=1.0,
            )
        # Prefix bytes are modelled as an instantaneous background fill
        # (they are small by construction), so the fraction-aware
        # advertisement is immediate: the segment serves the clusters it
        # covers at once.
        self.tracker.track(title_id)
        self._note_partial(title_id, achieved)
        return PlacementResult(
            title_id=title_id,
            action=PlacementAction.PREFIX_STORED,
            points=points,
            evicted=tuple(evicted),
            cached=False,
            resident_fraction=achieved,
        )


@dataclass(frozen=True)
class PlacementConfig:
    """Declarative placement-policy choice plus its knobs.

    One frozen object configures the whole deployment
    (``ServiceConfig.placement``, ``--placement`` on the CLI).

    Attributes:
        kind: One of :data:`PLACEMENT_KINDS`: ``"dma"`` (whole-title
            Figure 2, the default), ``"prefix"`` (first-N-minutes prefix
            of hot titles), ``"partial"`` (popularity-proportional
            fractional caching), ``"dma-greedy"`` (Figure 2 evicting until
            the newcomer fits), or the cache baselines ``"nocache"``,
            ``"lru"`` and ``"fullrep"``
            (:mod:`repro.baselines.caching`).
        prefix_minutes: Prefix length cached for hot titles, in playback
            minutes (kind ``prefix``).
        partial_floor: Minimum fraction cached for any requested title
            (kind ``partial``).
    """

    kind: str = "dma"
    prefix_minutes: float = 10.0
    partial_floor: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in PLACEMENT_KINDS:
            raise ServiceError(
                f"unknown placement kind {self.kind!r}; "
                f"expected one of {PLACEMENT_KINDS}"
            )
        if not (self.prefix_minutes > 0.0):
            raise ServiceError(
                f"prefix_minutes must be positive, got {self.prefix_minutes!r}"
            )
        if not (0.0 < self.partial_floor <= 1.0):
            raise ServiceError(
                f"partial_floor must be in (0, 1], got {self.partial_floor!r}"
            )

    def build(
        self,
        array: DiskArray,
        on_store: StoreHook = None,
        on_evict: StoreHook = None,
        on_partial: PartialHook = None,
    ) -> PlacementPolicy:
        """Construct the configured policy bound to one server's array."""
        from repro.placement.partial import PopularityWeightedPartial
        from repro.placement.prefix import PrefixReplication
        from repro.placement.whole_title import WholeTitleDma

        hooks = dict(on_store=on_store, on_evict=on_evict, on_partial=on_partial)
        if self.kind == "prefix":
            return PrefixReplication(array, prefix_minutes=self.prefix_minutes, **hooks)
        if self.kind == "partial":
            return PopularityWeightedPartial(
                array, floor_fraction=self.partial_floor, **hooks
            )
        if self.kind in ("dma", "dma-greedy"):
            return WholeTitleDma(
                array, evict_until_fits=self.kind == "dma-greedy", **hooks
            )
        # Imported here so a deployment of the paper's policies never
        # loads the baselines package.
        from repro.baselines import caching

        baselines = {
            "nocache": caching.NoCachePolicy,
            "lru": caching.LruCachePolicy,
            "fullrep": caching.FullReplicationPolicy,
        }
        return baselines[self.kind](array, **hooks)
