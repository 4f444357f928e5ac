"""Prefix replication: cache the first N minutes of hot titles.

Per the optimal prefix-replication line of work (arXiv 1003.4049), a
server keeps only the *leading segment* of popular titles — enough
playback to mask the startup latency of fetching the suffix from a full
holder elsewhere in the network.  Compared to whole-title DMA this trades
a little suffix traffic for a far wider cache reach: where the DMA fits
``capacity / title_size`` titles, prefix replication fits roughly
``capacity / prefix_size``.

Placement rules, per request:

* full title resident -> HIT (point awarded), like the DMA;
* otherwise award a point; once the title reaches
  :data:`HOT_TITLE_POINTS` points,
  cut (or extend toward) a prefix of ``prefix_minutes`` of playback,
  evicting strictly-less-popular residents for room;
* titles shorter than the prefix window are stored whole — that is an
  ordinary full store, advertised through the same deferred-download
  path the DMA uses.

Prefix segments are advertised to the database *fraction aware*
(:meth:`ServiceDatabase.add_title_to_server` with ``fraction < 1``), so
the per-cluster VRA counts the segment as a holder of the clusters it
covers: the home serves its own head-of-stream locally, and a neighbour
may fetch it from there; later clusters route to full holders.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CacheError
from repro.placement.base import (
    FractionalPlacementPolicy,
    PartialHook,
    PlacementAction,
    PlacementResult,
    StoreHook,
)
from repro.storage.array import DiskArray
from repro.storage.cache import PopularityTracker
from repro.storage.video import VideoTitle

#: Points a title needs before its prefix is cut: the second request
#: makes a title hot (arXiv 1003.4049's hot-title threshold).
HOT_TITLE_POINTS = 2


class PrefixReplication(FractionalPlacementPolicy):
    """First-N-minutes prefix caching of hot titles.

    Args:
        array: The server's striped disk array.
        tracker: Popularity state; a fresh tracker is created if omitted.
        on_store: Full-copy advertisement hook (short titles stored whole).
        on_evict: Withdrawal hook.
        on_partial: Fraction-aware advertisement hook for prefix segments.
        prefix_minutes: Playback minutes of prefix to keep for hot titles.
    """

    def __init__(
        self,
        array: DiskArray,
        tracker: Optional[PopularityTracker] = None,
        on_store: StoreHook = None,
        on_evict: StoreHook = None,
        on_partial: PartialHook = None,
        prefix_minutes: float = 10.0,
    ):
        if not (prefix_minutes > 0.0):
            raise CacheError(f"prefix_minutes must be positive, got {prefix_minutes!r}")
        super().__init__(
            array,
            tracker=tracker,
            on_store=on_store,
            on_evict=on_evict,
            on_partial=on_partial,
        )
        self.prefix_minutes = float(prefix_minutes)

    def target_fraction(self, video: VideoTitle) -> float:
        """Fraction of ``video`` covered by the prefix window (a
        :class:`VideoTitle`'s duration is positive)."""
        return min(1.0, (self.prefix_minutes * 60.0) / video.duration_s)

    # ------------------------------------------------------------------ #
    def _pass(self, video: VideoTitle, resident: float) -> PlacementResult:
        title_id = video.title_id
        points = self.tracker.give_point(title_id)
        target = self.target_fraction(video)
        if points < HOT_TITLE_POINTS or target <= resident + 1e-9:
            return PlacementResult(
                title_id=title_id,
                action=PlacementAction.POINT_ONLY,
                points=points,
                resident_fraction=resident,
            )

        evicted = self._make_room(video, target)
        return self._admit_fraction(video, target, points, evicted, resident)
