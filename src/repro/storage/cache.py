"""Popularity bookkeeping for the "most popular" concept.

The DMA counts requests ("points") per video title at each server.  The
:class:`PopularityTracker` keeps those counts plus the arrival order needed
for a deterministic least-popular choice when several titles tie.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import CacheError


class PopularityTracker:
    """Per-title request points with deterministic least-popular selection.

    Ties on points are broken by first-seen order (the earliest-tracked
    title is considered least popular), so simulations are reproducible.
    """

    def __init__(self):
        self._points: Dict[str, int] = {}
        self._first_seen: Dict[str, int] = {}
        self._order = itertools.count()
        #: Optional telemetry counter (anything with ``inc()``) bumped per
        #: awarded point; the service wires a registry counter here so the
        #: DMA's request pressure shows up in sampled timelines.
        self.points_counter = None

    def __len__(self) -> int:
        return len(self._points)

    def give_point(self, title_id: str) -> int:
        """Award one point ("Give a point to the Video").

        Returns:
            The title's new point total.
        """
        self._ensure_tracked(title_id)
        self._points[title_id] += 1
        if self.points_counter is not None:
            self.points_counter.inc()
        return self._points[title_id]

    def points_of(self, title_id: str) -> int:
        """Current points of a title (0 if never seen)."""
        return self._points.get(title_id, 0)

    def track(self, title_id: str) -> None:
        """Start tracking a title with 0 points (e.g. stored on arrival)."""
        self._ensure_tracked(title_id)

    def total_points(self) -> int:
        """Sum of points across all tracked titles (the denominator of
        popularity-proportional placement shares)."""
        return sum(self._points.values())

    def least_popular(self, among: Iterable[str]) -> Optional[str]:
        """The least-popular title of a candidate set.

        Args:
            among: Title ids to consider (typically the cached set).

        Returns:
            The id with the fewest points (earliest-seen breaks ties), or
            None if ``among`` is empty.
        """
        best: Optional[Tuple[int, int, str]] = None
        for title_id in among:
            key = (
                self._points.get(title_id, 0),
                self._first_seen.get(title_id, -1),
                title_id,
            )
            if best is None or key < best:
                best = key
        return best[2] if best is not None else None

    def ranking(self) -> List[Tuple[str, int]]:
        """(title, points) pairs, most popular first (diagnostics)."""
        return sorted(
            self._points.items(),
            key=lambda item: (-item[1], self._first_seen[item[0]]),
        )

    def _ensure_tracked(self, title_id: str) -> None:
        if not title_id:
            raise CacheError("title_id must be non-empty")
        if title_id not in self._points:
            self._points[title_id] = 0
            self._first_seen[title_id] = next(self._order)
