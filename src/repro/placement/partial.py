"""Popularity-weighted partial caching: points-proportional fractions.

Each requested title earns a cache share proportional to its share of
the server's total popularity points — a fractional analogue of the
square-root/proportional replication results surveyed in the scalable
distributed-VoD bounds (arXiv 0804.0743).  A title holding ``p`` of the
server's ``P`` total points targets

    fraction = clamp(max(floor, (p / P) * capacity / size), 0, 1)

of itself resident, as a leading segment.  Fractions grow with points
(segments extend in place, cluster by cluster) and shrink only by
eviction of the whole segment when hotter titles need the room.

Full stores (a title whose target reaches 1.0) go through the same
deferred-download advertisement path the DMA uses; partial segments are
advertised fraction-aware, so each is a holder of the clusters it covers.
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


class PopularityWeightedPartial(FractionalPlacementPolicy):
    """Points-proportional fractional caching.

    Args:
        array: The server's striped disk array.
        tracker: Popularity state; a fresh tracker is created if omitted.
        on_store: Full-copy advertisement hook (titles whose proportional
            share reaches the whole title).
        on_evict: Withdrawal hook.
        on_partial: Fraction-aware advertisement hook for segments.
        floor_fraction: Minimum fraction any requested title targets, so
            cold titles still cache a head-of-stream segment.
    """

    def __init__(
        self,
        array: DiskArray,
        tracker: Optional[PopularityTracker] = None,
        on_store: StoreHook = None,
        on_evict: StoreHook = None,
        on_partial: PartialHook = None,
        floor_fraction: float = 0.1,
    ):
        if not (0.0 < floor_fraction <= 1.0):
            raise CacheError(
                f"floor_fraction must be in (0, 1], got {floor_fraction!r}"
            )
        super().__init__(
            array,
            tracker=tracker,
            on_store=on_store,
            on_evict=on_evict,
            on_partial=on_partial,
        )
        self.floor_fraction = float(floor_fraction)

    def target_fraction(self, video: VideoTitle) -> float:
        """Points-proportional target fraction for ``video``."""
        total = self.tracker.total_points()
        share = 0.0
        if total > 0 and video.size_mb > 0.0:
            points = self.tracker.points_of(video.title_id)
            share = (points / total) * (self.array.total_capacity_mb / video.size_mb)
        return min(1.0, max(self.floor_fraction, share))

    # ------------------------------------------------------------------ #
    def _pass(self, video: VideoTitle, resident: float) -> PlacementResult:
        title_id = video.title_id
        points = self.tracker.give_point(title_id)
        target = self.target_fraction(video)
        if target <= resident + 1e-9:
            return PlacementResult(
                title_id=title_id,
                action=PlacementAction.POINT_ONLY,
                points=points,
                resident_fraction=resident,
            )

        evicted = self._make_room(video, target)
        return self._admit_fraction(video, target, points, evicted, resident)
