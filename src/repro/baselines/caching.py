"""Cache-policy baselines for the DMA comparison (DESIGN.md X2).

Each policy is a :class:`~repro.placement.base.PlacementPolicy` over the
same :class:`~repro.storage.array.DiskArray`, built by
:meth:`repro.placement.base.PlacementConfig.build` as the placement kinds
``nocache``, ``lru`` and ``fullrep``.

* :class:`NoCachePolicy` — never stores anything beyond its seeds: the
  lower bound, a pure "origin servers only" deployment;
* :class:`LruCachePolicy` — store on every request, evict least-recently-
  used titles until the newcomer fits (classic proxy-cache behaviour the
  paper explicitly contrasts with: "not ... any video title downloaded by
  any user ..., as is the concept of a proxy server");
* :class:`FullReplicationPolicy` — store everywhere while space lasts,
  never evict: the storage-unconstrained upper bound.
"""

from __future__ import annotations

from typing import List, Optional

from repro.placement.base import (
    PlacementAction,
    PlacementPolicy,
    PlacementResult,
)
from repro.storage.video import VideoTitle


class NoCachePolicy(PlacementPolicy):
    """Never caches on demand; only seeded titles are ever resident."""

    def _pass(self, video: VideoTitle, resident: float) -> PlacementResult:
        """Count the request; store nothing."""
        return PlacementResult(
            title_id=video.title_id,
            action=PlacementAction.POINT_ONLY,
            points=self.tracker.give_point(video.title_id),
            cached=False,
        )


class LruCachePolicy(PlacementPolicy):
    """Proxy-style cache: admit everything, evict least recently used."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._recency: List[str] = []  # least recent first

    def seed(self, video: VideoTitle) -> None:
        super().seed(video)
        self._touch(video.title_id)

    def on_request(self, video: VideoTitle) -> PlacementResult:
        """A pass that leaves the title cached makes it the most recent."""
        result = super().on_request(video)
        if result.cached:
            self._touch(video.title_id)
        return result

    def _pass(self, video: VideoTitle, resident: float) -> PlacementResult:
        """Admit the title, evicting LRU victims until it fits."""
        points = self.tracker.give_point(video.title_id)
        evicted: List[str] = []
        while not self.array.can_store(video):
            victim = self._least_recent()
            if victim is None:
                break
            self._evict(victim)
            self._recency.remove(victim)
            evicted.append(victim)
        if self.array.can_store(video):
            self._store(video)
            action = PlacementAction.REPLACED if evicted else PlacementAction.STORED
            return PlacementResult(
                title_id=video.title_id,
                action=action,
                points=points,
                evicted=tuple(evicted),
                cached=True,
                resident_fraction=1.0,
            )
        # The title is larger than the whole array: nothing fits it.
        if evicted:
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
            cached=False,
        )

    def _touch(self, title_id: str) -> None:
        if title_id in self._recency:
            self._recency.remove(title_id)
        self._recency.append(title_id)

    def _least_recent(self) -> Optional[str]:
        for title_id in self._recency:
            if self.array.has_video(title_id) and title_id not in self.pinned:
                return title_id
        return None


class FullReplicationPolicy(PlacementPolicy):
    """Store every requested title while space lasts; never evict."""

    def _pass(self, video: VideoTitle, resident: float) -> PlacementResult:
        """Admit if it fits; otherwise just count the request."""
        points = self.tracker.give_point(video.title_id)
        if self.array.can_store(video):
            self._store(video)
            return PlacementResult(
                title_id=video.title_id,
                action=PlacementAction.STORED,
                points=points,
                cached=True,
                resident_fraction=1.0,
            )
        return PlacementResult(
            title_id=video.title_id,
            action=PlacementAction.POINT_ONLY,
            points=points,
            cached=False,
        )
