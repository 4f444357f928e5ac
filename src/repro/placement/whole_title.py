"""Whole-title DMA placement (the paper's Figure 2, behind the new API).

This is the existing Disk Manipulation Algorithm refactored onto the
:class:`~repro.placement.base.PlacementPolicy` interface — **bit-for-bit
identical by default** (the default-config replay gates in
``tests/placement/test_equivalence.py`` hold it to that).
Whenever the server begins downloading (serving) a video it executes one
pass of the Figure 2 loop body:

* video already on disk            -> give it a point;
* not on disk, array tolerates it  -> write it to the disks;
* otherwise                        -> give it a point, and if its points now
  exceed the least-popular cached video's points, delete that video and
  write the new one if the array now tolerates it.

Two faithful quirks of the pseudocode are preserved (and unit-tested):

1. A video stored because it fit immediately receives **no** point on that
   request — only already-cached or non-fitting videos are pointed.
2. The eviction branch deletes exactly one victim; if the newcomer still
   does not fit, the victim stays lost and the newcomer stays uncached.
   The ``evict_until_fits`` extension keeps evicting while the comparison
   still holds (see DESIGN.md X2 ablation).

The eviction loop maintains its candidate set incrementally (one sorted
snapshot per pass, victims discarded as they go) instead of rebuilding
the sorted resident list every iteration.  Behaviour is unchanged:
:meth:`PopularityTracker.least_popular` selects by the total order
``(points, first_seen, title_id)``, which is independent of candidate
iteration order, and no pass mutates points mid-loop.
"""

from __future__ import annotations

from typing import List, Optional

from repro.placement.base import (
    PartialHook,
    PlacementAction,
    PlacementPolicy,
    PlacementResult,
    StoreHook,
)
from repro.storage.array import DiskArray
from repro.storage.cache import PopularityTracker
from repro.storage.video import VideoTitle


class WholeTitleDma(PlacementPolicy):
    """Figure 2, bound to one server's disk array.

    Args:
        array: The server's striped disk array.
        tracker: Popularity state; a fresh tracker is created if omitted.
        on_store: Callback invoked with a title id after it is written
            (the service advertises the title in the database here).
        on_evict: Callback invoked with a title id after it is deleted
            (the service withdraws the advertisement here).
        on_partial: Accepted for interface uniformity; never fired — the
            DMA stores whole titles only.
        evict_until_fits: Extension — keep evicting successive least-popular
            victims while the newcomer still out-scores them and still does
            not fit.  Default False = exact Figure 2 behaviour.
    """

    def __init__(
        self,
        array: DiskArray,
        tracker: Optional[PopularityTracker] = None,
        on_store: StoreHook = None,
        on_evict: StoreHook = None,
        on_partial: PartialHook = None,
        evict_until_fits: bool = False,
    ):
        super().__init__(
            array,
            tracker=tracker,
            on_store=on_store,
            on_evict=on_evict,
            on_partial=on_partial,
        )
        self.evict_until_fits = evict_until_fits

    # ------------------------------------------------------------------ #
    def _pass(self, video: VideoTitle, resident: float) -> PlacementResult:
        """One Figure 2 pass for a video not yet on the disks (the HIT
        branch is :meth:`PlacementPolicy.on_request`'s)."""
        if self.array.can_store(video):
            self._store(video)
            return PlacementResult(
                title_id=video.title_id,
                action=PlacementAction.STORED,
                points=self.tracker.points_of(video.title_id),
                cached=True,
                resident_fraction=1.0,
            )

        points = self.tracker.give_point(video.title_id)
        evicted = self._try_replacement(video)
        cached = self.array.has_video(video.title_id)
        if cached:
            action = PlacementAction.REPLACED
        elif evicted:
            action = PlacementAction.EVICTED_NOT_STORED
            self.lost_victims += 1
            self.lost_victim_counter.inc()
        else:
            action = PlacementAction.POINT_ONLY
        return PlacementResult(
            title_id=video.title_id,
            action=action,
            points=points,
            evicted=tuple(evicted),
            cached=cached,
            resident_fraction=1.0 if cached else 0.0,
        )

    # ------------------------------------------------------------------ #
    def _try_replacement(self, video: VideoTitle) -> List[str]:
        """The eviction branch of Figure 2; returns evicted title ids."""
        evicted: List[str] = []
        # One snapshot per pass: victims leave the set as they are evicted,
        # and the newcomer's points are fixed for the whole loop (no pass
        # awards points mid-eviction).
        candidates = set(self.array.stored_title_ids()) - self.pinned
        points = self.tracker.points_of(video.title_id)
        while True:
            victim = self.tracker.least_popular(candidates)
            if victim is None:
                break
            if not (points > self.tracker.points_of(victim)):
                break
            self._evict(victim)
            candidates.discard(victim)
            evicted.append(victim)
            if self.array.can_store(video):
                self._store(video)
                break
            if not self.evict_until_fits:
                break  # exact Figure 2: one victim only
        return evicted
