"""Epoch-versioned memoization of routing state.

The VRA recomputes the LVN weight table (equations 1-4) and a Dijkstra
search for every decision, yet its inputs only change when a
*routing epoch* advances: an SNMP sample lands in the limited-access
database, a link fails or recovers, or — on the ground-truth path —
link usage itself mutates.  Between epochs every recomputation is
byte-identical, so the service threads a cheap epoch token (see
``VoDService.routing_epoch``) through this cache and reuses:

* the LVN ``weight_table`` — one per epoch, and
* the ``DijkstraResult`` — one per ``(epoch, source)``, LRU-bounded by
  ``max_trees``.  The python path stores complete shortest-path trees;
  the compiled path stores the *prefix* its goal-directed search settled
  (everything within ``radius`` of the source), which answers any later
  request with a target inside it and is replaced by a longer search
  otherwise (:meth:`RoutingCache.tree`).

Correctness contract: the epoch token MUST change whenever any routing
input could have changed.  Under that contract a cache hit returns the
same decision bit-for-bit as a cold run; the SNMP *staleness* the paper
reproduces lives in the database values themselves, not in the act of
recomputing, so memoization preserves it exactly (the VRA still sees
exactly the last SNMP sample).

The epoch token says *when* something may have moved; nothing needs to
say *what*.  A new token is a flush: the table and every cached search
are dropped and rebuilt on demand under the new token (DESIGN.md §5b.7
records why nothing is carried across — an SNMP round rewrites most
links, so almost no tree survives one and proving that one did costs
what re-running it does).

``max_trees=0`` disables the cache entirely: every call computes fresh
and no counters move, restoring the uncached behaviour exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Sequence

from repro.errors import ReproError
from repro.network.routing.dijkstra import DijkstraResult

#: Default LRU bound on cached Dijkstra trees (one per home server is the
#: steady state, so this comfortably covers topologies of ~128 nodes).
DEFAULT_TREE_CAPACITY = 128


@dataclass
class RoutingCacheStats:
    """Hit/miss/invalidation counters of one :class:`RoutingCache`.

    Attributes:
        weight_hits: LVN table requests answered from cache.
        weight_misses: LVN table requests that recomputed.
        tree_hits: Dijkstra-tree requests answered from cache.
        tree_misses: Dijkstra-tree requests that recomputed.
        invalidations: Epoch transitions (each one flushed everything).
        evictions: Trees dropped by the LRU bound (not by invalidation).
    """

    weight_hits: int = 0
    weight_misses: int = 0
    tree_hits: int = 0
    tree_misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        """Total cache hits (weights + trees)."""
        return self.weight_hits + self.tree_hits

    @property
    def misses(self) -> int:
        """Total cache misses (weights + trees)."""
        return self.weight_misses + self.tree_misses

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups, in [0, 1] (0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for snapshots, traces and reports."""
        return {
            "weight_hits": self.weight_hits,
            "weight_misses": self.weight_misses,
            "tree_hits": self.tree_hits,
            "tree_misses": self.tree_misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class RoutingCache:
    """Per-epoch memo of the LVN table and Dijkstra trees / tree prefixes.

    Args:
        max_trees: LRU bound on cached trees; ``0`` disables the cache.

    The cache holds state for exactly one epoch at a time: the first
    lookup under a new epoch token drops everything cached under the
    previous one (counted as an invalidation).  Keeping only the live
    epoch is deliberate — stale epochs can never be asked for again,
    because the version counters feeding the token are monotonic.
    """

    max_trees: int = DEFAULT_TREE_CAPACITY
    stats: RoutingCacheStats = field(default_factory=RoutingCacheStats)
    _epoch: Optional[Hashable] = field(default=None, repr=False)
    _weights: Optional[Dict[str, float]] = field(default=None, repr=False)
    _trees: "OrderedDict[str, DijkstraResult]" = field(
        default_factory=OrderedDict, repr=False
    )

    def __post_init__(self) -> None:
        if self.max_trees < 0:
            raise ReproError(
                f"routing cache size must be >= 0, got {self.max_trees!r}"
            )

    @property
    def enabled(self) -> bool:
        """False when ``max_trees`` is 0 (pass-through mode)."""
        return self.max_trees > 0

    @property
    def epoch(self) -> Optional[Hashable]:
        """The epoch token currently cached (None before first use)."""
        return self._epoch

    def weights(
        self, epoch: Hashable, compute: Callable[[], Dict[str, float]]
    ) -> Dict[str, float]:
        """The LVN table for ``epoch``, computing via ``compute`` on miss."""
        if not self.enabled:
            return compute()
        self.sync(epoch)
        if self._weights is None:
            self.stats.weight_misses += 1
            self._weights = compute()
        else:
            self.stats.weight_hits += 1
        return self._weights

    def tree(
        self,
        epoch: Hashable,
        source: str,
        compute: Callable[[], DijkstraResult],
        targets: Sequence[str] = (),
    ) -> DijkstraResult:
        """The Dijkstra search from ``source`` for ``epoch`` (LRU-bounded).

        ``targets`` are the nodes the caller will read (none = the whole
        tree).  A cached *prefix* answers iff one of them lies inside it:
        the nearest target, and every target tying with it, is then inside
        too.  Otherwise it is a miss — ``compute`` searches further out
        under the current weights and its longer result replaces the
        entry; a prefix is never extended in place.
        """
        if not self.enabled:
            return compute()
        self.sync(epoch)
        cached = self._trees.get(source)
        if cached is not None and (
            cached.complete or not cached.distances.keys().isdisjoint(targets)
        ):
            self.stats.tree_hits += 1
            self._trees.move_to_end(source)
            return cached
        self.stats.tree_misses += 1
        result = compute()
        self._trees[source] = result
        self._trees.move_to_end(source)
        while len(self._trees) > self.max_trees:
            self._trees.popitem(last=False)
            self.stats.evictions += 1
        return result

    def clear(self) -> None:
        """Drop all cached state (counters are preserved)."""
        self._epoch = None
        self._weights = None
        self._trees.clear()

    def sync(self, epoch: Hashable) -> None:
        """Bring the cache onto ``epoch`` (called by :meth:`weights` and
        :meth:`tree`; a no-op while the epoch is unchanged)."""
        if epoch == self._epoch:
            return
        if self._epoch is not None:
            self.stats.invalidations += 1
        self.clear()
        self._epoch = epoch
