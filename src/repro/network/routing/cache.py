"""The one epoch memo in front of the VRA.

The VRA (paper Figure 5) is a pure function of the holder list, the poll
answers, the SNMP-reported link usage and the topology state, and each
of those moves only when something writes it — and every such write
publishes on the one change feed (:mod:`repro.network.feed`).  The
service subscribes this memo's two flushes to that feed, so the memo
never asks whether it is current; it is flushed when it stops being so.

It holds the LVN ``weight_table``, one ``DijkstraResult`` per home — the
goal-directed *prefix* (everything within ``radius``) the routing
kernel's search returned (:meth:`RoutingCache.tree`) — and the
:class:`~repro.core.vra.VraDecision` per ``(home, title)`` the service
replays.  A routing input's publish (link stats, or link traffic on the
ground-truth path; topology state; stream slots when the node-load
extension folds them into the weights) calls :meth:`RoutingCache.flush`,
which drops all three.  An availability input's publish (poll answers,
holder lists) calls :meth:`RoutingCache.flush_decisions`, which drops
only the decisions: every stream-slot change publishes one, far more
often than an SNMP round lands (DESIGN.md §5b.8).

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
    """The memo between two flushes: LVN table, search per home, decisions.

    Args:
        search: The search a tree miss runs, called as ``search(source,
            weights, targets)`` (the VRA passes its routing kernel's
            :meth:`~repro.network.compiled.TopologySnapshot.dijkstra`).
    """

    search: Optional[Callable[[str, Dict[str, float], Sequence[str]], DijkstraResult]] = field(
        default=None, repr=False
    )
    stats: RoutingCacheStats = field(default_factory=RoutingCacheStats)
    #: Decision replays and VRA runs; a replay is one int bump here, and
    #: :attr:`decision_stats` reads both.
    decision_hits: int = 0
    decision_misses: int = 0
    #: ``(home_uid, title_id) -> VraDecision`` since the last flush;
    #: filled and read by the service.
    decisions: Dict[Tuple[str, str], Any] = field(default_factory=dict, repr=False)
    _weights: Optional[Dict[str, float]] = field(default=None, repr=False)
    _trees: Dict[str, DijkstraResult] = field(default_factory=dict, repr=False)

    @property
    def decision_stats(self) -> DecisionCacheStats:
        """Whole-decision replay counters, read as one value."""
        return DecisionCacheStats(self.decision_hits, self.decision_misses)

    def flush(self, _key: object = None) -> None:
        """A routing input moved: drop the table, every tree and every
        decision.  Counted as an invalidation only when it dropped a
        table or a tree, so a storm of publishes between two decisions
        counts once.  A feed subscriber (the key is ignored)."""
        if self._weights is not None or self._trees:
            self.stats.invalidations += 1
            self._weights = None
            self._trees.clear()
        self.decisions.clear()

    def flush_decisions(self, _key: object = None) -> None:
        """An availability input moved: drop every decision, keep the
        table and the trees.  A feed subscriber (the key is ignored)."""
        self.decisions.clear()

    def weights(self, compute: Callable[[], Dict[str, float]]) -> Dict[str, float]:
        """The LVN table since the last flush, computing via ``compute``
        on miss."""
        if self._weights is None:
            self.stats.weight_misses += 1
            self._weights = compute()
        else:
            self.stats.weight_hits += 1
        return self._weights

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
