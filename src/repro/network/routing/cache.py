"""The one epoch memo in front of the VRA.

The VRA (paper Figure 5) is a pure function of the holder list, the poll
answers, the SNMP-reported link usage and the topology state, and each
of those moves only when something writes it — and every such write
publishes on the one change feed (:mod:`repro.network.feed`).  The
decision pipeline (:mod:`repro.core.decision`) subscribes this memo's
two flushes to that feed, so the memo never asks whether it is current;
it is flushed when it stops being so.

Each map is dropped by exactly the publishes of its inputs (DESIGN.md
§5b.14).  A routing input's publish (link stats, or link traffic on the
ground-truth path; topology state; stream slots under the node-load
extension) calls :meth:`RoutingCache.flush`: the LVN table, the search
*prefix* per home (:meth:`RoutingCache.tree`) and the route per (home,
available holders) go.  An availability input's publish (poll answers,
holder lists; every stream slot publishes one, DESIGN.md §5b.8) calls
:meth:`RoutingCache.flush_decisions`: the poll answers per (title,
polled cluster) go.  Both drop the replays, a ``functools.lru_cache``
over the pipeline's cold decide.

Correctness contract: every input publishes, and the flush runs before
any other subscriber of its kind can ask for a decision; a hit then
returns the same decision bit-for-bit as a cold run (the SNMP
*staleness* the paper reproduces lives in the database values, not in
the act of recomputing).  A move is a flush, never a repair: an SNMP
round rewrites most links, so almost no tree survives one and proving
that one did costs what re-running it does (DESIGN.md §5b.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.network.routing.dijkstra import DijkstraResult
from repro.network.routing.paths import Path

#: A route: chosen server, its least-cost path from the home, the table.
Route = Tuple[str, Path, Dict[str, float]]


@dataclass
class RoutingCacheStats:
    """Table/tree counters of one :class:`RoutingCache`.

    Attributes:
        weight_hits: LVN table requests answered from the memo.
        weight_misses: LVN table requests that recomputed.
        tree_hits: Dijkstra-tree requests answered from the memo.
        tree_misses: Dijkstra-tree requests that recomputed.
        invalidations: Flushes that dropped a table or a tree.
    """

    weight_hits: int = 0
    weight_misses: int = 0
    tree_hits: int = 0
    tree_misses: int = 0
    invalidations: int = 0

    @property
    def hits(self) -> int:
        """Total hits (weights + trees)."""
        return self.weight_hits + self.tree_hits

    @property
    def misses(self) -> int:
        """Total misses (weights + trees)."""
        return self.weight_misses + self.tree_misses

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups, in [0, 1] (0 before any lookup)."""
        return _rate(self.hits, self.misses)


@dataclass
class DecisionCacheStats:
    """Whole-decision replay counters of one :class:`RoutingCache`.

    Attributes:
        hits: ``decide()`` calls answered with a stored decision.
        misses: Lookups that ran the VRA.
    """

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, in [0, 1] (0 before any lookup)."""
        return _rate(self.hits, self.misses)


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


@dataclass
class RoutingCache:
    """The memo between two flushes: LVN table, search per home, routes,
    poll answers and replays.

    Args:
        search: The search a tree miss runs, called as ``search(source,
            weights, targets)`` (the VRA passes its routing kernel's
            :meth:`~repro.network.compiled.TopologySnapshot.dijkstra`).
    """

    search: Optional[Callable[[str, Dict[str, float], Sequence[str]], DijkstraResult]] = field(
        default=None, repr=False
    )
    stats: RoutingCacheStats = field(default_factory=RoutingCacheStats)
    #: Cold decides the owner ran (each one a VRA run, errors included).
    decision_misses: int = 0
    #: ``functools.lru_cache`` over the owner's cold decide, set by the
    #: owner: a replay is one C dict probe, counted by ``cache_info()``.
    replays: Optional[Any] = field(default=None, repr=False)
    #: ``(title_id, polled cluster) -> (answered yes, answered no)``.
    polls: Dict[Tuple[str, Optional[int]], Any] = field(default_factory=dict, repr=False)
    #: ``(home_uid, available holders) -> Route``.
    routes: Dict[Tuple[str, Tuple[str, ...]], Route] = field(default_factory=dict, repr=False)
    _weights: Optional[Dict[str, float]] = field(default=None, repr=False)
    _trees: Dict[str, DijkstraResult] = field(default_factory=dict, repr=False)
    #: Replays counted by ``replays`` before its last clear, and the miss
    #: count at that clear.
    _harvested: int = 0
    _misses_at_clear: int = 0

    @property
    def decision_hits(self) -> int:
        """Replays so far: what the flushes harvested plus the live count."""
        replays = self.replays
        return self._harvested + (replays.cache_info().hits if replays else 0)

    @property
    def decision_stats(self) -> DecisionCacheStats:
        """Whole-decision replay counters, read as one value."""
        return DecisionCacheStats(self.decision_hits, self.decision_misses)

    def flush(self, _key: object = None) -> None:
        """A routing input moved: drop the table, every tree and route,
        and every replay.  Counted as an invalidation only when it dropped
        a table or a tree, so a storm of publishes between two decisions
        counts once.  A feed subscriber (the key is ignored)."""
        if self._weights is not None or self._trees:
            self.stats.invalidations += 1
            self._weights = None
            self._trees.clear()
            self.routes.clear()  # each was routed on the table just dropped
        self._clear_replays()

    def flush_decisions(self, _key: object = None) -> None:
        """An availability input moved: drop every poll answer and every
        replay, keep the table, the trees and the routes.  A feed
        subscriber (the key is ignored)."""
        self.polls.clear()
        self._clear_replays()

    def _clear_replays(self) -> None:
        # Only a miss stores a replay (a call handing on to another key
        # stores what that key's miss stored), so with no miss since the
        # last clear the common flush costs one compare.
        if self.decision_misses != self._misses_at_clear:
            self._misses_at_clear = self.decision_misses
            self._harvested += self.replays.cache_info().hits
            self.replays.cache_clear()

    def weights(self, compute: Callable[[], Dict[str, float]]) -> Dict[str, float]:
        """The LVN table since the last flush, computing via ``compute``
        on miss."""
        if self._weights is None:
            self.stats.weight_misses += 1
            self._weights = compute()
        else:
            self.stats.weight_hits += 1
        return self._weights

    def route(
        self, home_uid: str, available: Tuple[str, ...],
        compute: Callable[[str, Tuple[str, ...]], Optional[Route]],
    ) -> Optional[Route]:
        """The route from ``home_uid`` to the cheapest of ``available``
        since the last flush (a partition, None, is recomputed).  A hit
        counts the table and tree lookups ``compute`` would have made:
        both hit, since within an epoch a home's prefix only grows."""
        key = (home_uid, available)
        route = self.routes.get(key)
        if route is None:
            route = self.routes[key] = compute(home_uid, available)
        else:
            self.stats.weight_hits += 1
            self.stats.tree_hits += 1
        return route

    def tree(
        self,
        source: str,
        weights: Dict[str, float],
        targets: Sequence[str] = (),
    ) -> DijkstraResult:
        """The Dijkstra search from ``source`` since the last flush.

        ``weights`` is the table :meth:`weights` returned;
        ``targets`` are the nodes the caller will read (none = the whole
        tree).  A cached *prefix* answers iff one of them lies inside it:
        the nearest target, and every target tying with it, is then inside
        too.  Otherwise it is a miss — :attr:`search` runs further out
        over ``weights`` and its longer result replaces the entry; a
        prefix is never extended in place.
        """
        cached = self._trees.get(source)
        if cached is not None and (
            cached.complete or not cached.distances.keys().isdisjoint(targets)
        ):
            self.stats.tree_hits += 1
            return cached
        self.stats.tree_misses += 1
        result = self.search(source, weights, targets)
        self._trees[source] = result
        return result
