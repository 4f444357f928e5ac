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

The epoch token says *when* something may have moved; a table diff says
*what* did.  On a new token the cache asks its ``delta_probe`` — the VRA
builds one cold weight table and compares it link by link with the
previous one — for ``(weight_table, link_deltas)`` and applies only the
deltas (a *partial* invalidation): the table is swapped for the new one
(the probe hands back the *same object* when nothing moved) and each
cached Dijkstra tree or prefix is kept iff
:func:`~repro.network.routing.dijkstra.tree_unaffected` proves it
bit-for-bit valid against every delta (kept = *repaired*; dropped =
*rerooted* lazily on the next request).  Without a probe, or when the
probe answers None (the VRA's does only before its first table exists,
when nothing is cached yet), a new token flushes everything (a *full*
invalidation) — the cache's own degenerate case, so delta maintenance can
only ever cost performance, never correctness.

``max_trees=0`` disables the cache entirely: every call computes fresh
and no counters move, restoring the uncached behaviour exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.network.routing.dijkstra import DijkstraResult, LinkDelta, tree_unaffected
from repro.obs.phase import NO_PHASE_TIMER, PhaseTimer
from repro.obs.registry import NULL_COUNTER, Counter, MetricsRegistry

#: Default LRU bound on cached Dijkstra trees (one per home server is the
#: steady state, so this comfortably covers topologies of ~128 nodes).
DEFAULT_TREE_CAPACITY = 128

#: Signature of the delta probe: None means "no previous table to diff
#: against, flush fully"; otherwise the current weight table plus the link
#: deltas to revalidate cached trees against.
DeltaProbe = Callable[[], Optional[Tuple[Dict[str, float], List[LinkDelta]]]]


@dataclass
class RoutingCacheStats:
    """Hit/miss/invalidation counters of one :class:`RoutingCache`.

    Attributes:
        weight_hits: LVN table requests answered from cache.
        weight_misses: LVN table requests that recomputed.
        tree_hits: Dijkstra-tree requests answered from cache.
        tree_misses: Dijkstra-tree requests that recomputed.
        full_invalidations: Epoch transitions that flushed everything
            (no delta probe, or the probe had no previous table).
        partial_invalidations: Epoch transitions absorbed by swapping
            the weight table and revalidating trees against link deltas.
        dirty_links: Link deltas applied across all partial
            invalidations (0 deltas = a no-op epoch, the steady-SNMP
            case).
        trees_repaired: Cached trees proven still valid in place across
            a non-empty delta batch.
        trees_rerooted: Cached trees dropped by delta revalidation (they
            recompute lazily, from their own source only, on next use).
        evictions: Trees dropped by the LRU bound (not by invalidation).
    """

    weight_hits: int = 0
    weight_misses: int = 0
    tree_hits: int = 0
    tree_misses: int = 0
    full_invalidations: int = 0
    partial_invalidations: int = 0
    dirty_links: int = 0
    trees_repaired: int = 0
    trees_rerooted: int = 0
    evictions: int = 0

    @property
    def invalidations(self) -> int:
        """Total epoch transitions handled (full flushes + partials).

        PR 1 dashboards read this name; it keeps meaning "epochs the
        cache had to react to" now that most of them no longer flush.
        """
        return self.full_invalidations + self.partial_invalidations

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
            "full_invalidations": self.full_invalidations,
            "partial_invalidations": self.partial_invalidations,
            "dirty_links": self.dirty_links,
            "trees_repaired": self.trees_repaired,
            "trees_rerooted": self.trees_rerooted,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class RoutingCache:
    """Per-epoch memo of the LVN table and Dijkstra trees / tree prefixes.

    Args:
        max_trees: LRU bound on cached trees; ``0`` disables the cache.
        delta_probe: Optional callable consulted on every epoch
            transition; see the module docstring.  None flushes on
            every epoch.

    The cache holds state for exactly one epoch at a time: the first
    lookup under a new epoch token either carries the previous epoch's
    state across the delta probe's differences or flushes it (counted
    as a partial or full invalidation respectively).  Keeping only the
    live epoch is deliberate — stale epochs can never be asked for again,
    because the version counters feeding the token are monotonic.
    """

    max_trees: int = DEFAULT_TREE_CAPACITY
    delta_probe: Optional[DeltaProbe] = None
    stats: RoutingCacheStats = field(default_factory=RoutingCacheStats)
    _epoch: Optional[Hashable] = field(default=None, repr=False)
    _weights: Optional[Dict[str, float]] = field(default=None, repr=False)
    _trees: "OrderedDict[str, DijkstraResult]" = field(
        default_factory=OrderedDict, repr=False
    )
    _m_partial: Counter = field(default=NULL_COUNTER, repr=False, compare=False)
    _m_dirty: Counter = field(default=NULL_COUNTER, repr=False, compare=False)
    _m_repaired: Counter = field(default=NULL_COUNTER, repr=False, compare=False)
    #: Wall-clock timer around epoch transitions (obs.phase.cache_sync_ms);
    #: the service swaps in a live timer when phase profiling is on.
    phase_timer: PhaseTimer = field(default=NO_PHASE_TIMER, repr=False, compare=False)

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

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Resolve the delta-maintenance counters from a registry."""
        self._m_dirty = registry.counter(
            "routing.dirty_links", subsystem="network",
            description="link deltas applied across partial cache invalidations",
        )
        self._m_partial = registry.counter(
            "routing.partial_invalidations", subsystem="network",
            description="epoch transitions absorbed as link deltas, not a flush",
        )
        self._m_repaired = registry.counter(
            "routing.trees_repaired", subsystem="network",
            description="cached Dijkstra trees revalidated in place after deltas",
        )

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
        t_phase = self.phase_timer.start()
        try:
            self._sync_changed(epoch)
        finally:
            self.phase_timer.stop(t_phase)

    def _sync_changed(self, epoch: Hashable) -> None:
        if self._epoch is not None and self.delta_probe is not None:
            patched = self.delta_probe()
            if patched is not None:
                table, deltas = patched
                self.stats.partial_invalidations += 1
                self.stats.dirty_links += len(deltas)
                self._m_partial.inc()
                if deltas:
                    self._m_dirty.inc(len(deltas))
                self._epoch = epoch
                self._weights = table
                if deltas and self._trees:
                    survivors: "OrderedDict[str, DijkstraResult]" = OrderedDict()
                    for source, result in self._trees.items():
                        if all(tree_unaffected(result, d) for d in deltas):
                            survivors[source] = result
                            self.stats.trees_repaired += 1
                            self._m_repaired.inc()
                        else:
                            self.stats.trees_rerooted += 1
                    self._trees = survivors
                return
        if self._epoch is not None:
            self.stats.full_invalidations += 1
        self._epoch = epoch
        self._weights = None
        self._trees.clear()
