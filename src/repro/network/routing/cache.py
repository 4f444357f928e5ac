"""The one epoch memo in front of the VRA.

The VRA (paper Figure 5) is a pure function of the holder list, the poll
answers, the SNMP-reported link usage and the topology state, and each
moves only when a version counter does.  The service threads one flat
token over those counters through this memo.  Its leading
``routing_width`` entries are the *routing part* (``routing_epoch()``'s
counters, plus server availability when the node-load extension folds
stream slots into the weights); while it stands the memo reuses the LVN
``weight_table`` and one ``DijkstraResult`` per home — a complete tree on
the python path, the goal-directed *prefix* (everything within ``radius``)
on the compiled one (:meth:`RoutingCache.tree`).  The rest is the
*availability part* (poll answers, holder lists): while the whole token
stands, the service replays the :class:`~repro.core.vra.VraDecision` per
``(home, title)`` stored here.  :meth:`RoutingCache.sync` flushes
everything when the routing part moves and only the decisions when just
the availability part does — every stream-slot change bumps it, far more
often than an SNMP round lands (DESIGN.md §5b.8).

Correctness contract: the token MUST change whenever any input could have
changed; a hit then returns the same decision bit-for-bit as a cold run
(the SNMP *staleness* the paper reproduces lives in the database values,
not in the act of recomputing).  A move is a flush, never a repair: an
SNMP round rewrites most links, so almost no tree survives one and
proving that one did costs what re-running it does (DESIGN.md §5b.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.network.routing.dijkstra import DijkstraResult


@dataclass
class RoutingCacheStats:
    """Table/tree counters of one :class:`RoutingCache`.

    Attributes:
        weight_hits: LVN table requests answered from the memo.
        weight_misses: LVN table requests that recomputed.
        tree_hits: Dijkstra-tree requests answered from the memo.
        tree_misses: Dijkstra-tree requests that recomputed.
        invalidations: Routing-part moves (each one flushed everything).
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

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for snapshots, traces and reports."""
        return {
            "weight_hits": self.weight_hits,
            "weight_misses": self.weight_misses,
            "tree_hits": self.tree_hits,
            "tree_misses": self.tree_misses,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


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

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for snapshots."""
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


@dataclass
class RoutingCache:
    """The memo of one token: LVN table, search per home, decisions.

    Args:
        token_of: The token provider its owner reads before a lookup
            (the memo itself only compares what it is handed).
        routing_width: How many leading entries of a tuple token form the
            routing part; ``None`` makes the whole token (any hashable)
            routing.  Older tokens are never asked for again: the
            counters feeding them are monotonic.
    """

    token_of: Optional[Callable[[], Hashable]] = field(default=None, repr=False)
    routing_width: Optional[int] = None
    stats: RoutingCacheStats = field(default_factory=RoutingCacheStats)
    decision_stats: DecisionCacheStats = field(default_factory=DecisionCacheStats)
    #: The token everything below was computed under (None before use).
    token: Optional[Hashable] = field(default=None, repr=False)
    #: ``(home_uid, title_id) -> VraDecision`` under ``token``; filled and
    #: read by the service, dropped here on every token move.
    decisions: Dict[Tuple[str, str], Any] = field(default_factory=dict, repr=False)
    _weights: Optional[Dict[str, float]] = field(default=None, repr=False)
    _trees: Dict[str, DijkstraResult] = field(default_factory=dict, repr=False)

    def weights(
        self, token: Hashable, compute: Callable[[], Dict[str, float]]
    ) -> Dict[str, float]:
        """The LVN table for ``token``, computing via ``compute`` on miss."""
        self.sync(token)
        if self._weights is None:
            self.stats.weight_misses += 1
            self._weights = compute()
        else:
            self.stats.weight_hits += 1
        return self._weights

    def tree(
        self,
        token: Hashable,
        source: str,
        compute: Callable[[], DijkstraResult],
        targets: Sequence[str] = (),
    ) -> DijkstraResult:
        """The Dijkstra search from ``source`` for ``token``.

        ``targets`` are the nodes the caller will read (none = the whole
        tree).  A cached *prefix* answers iff one of them lies inside it:
        the nearest target, and every target tying with it, is then inside
        too.  Otherwise it is a miss — ``compute`` searches further out
        under the current weights and its longer result replaces the
        entry; a prefix is never extended in place.
        """
        self.sync(token)
        cached = self._trees.get(source)
        if cached is not None and (
            cached.complete or not cached.distances.keys().isdisjoint(targets)
        ):
            self.stats.tree_hits += 1
            return cached
        self.stats.tree_misses += 1
        result = compute()
        self._trees[source] = result
        return result

    def clear(self) -> None:
        """Drop all cached state (counters are preserved)."""
        self.token = None
        self.decisions.clear()
        self._weights = None
        self._trees.clear()

    def sync(self, token: Hashable) -> None:
        """Bring the memo onto ``token``: a no-op while it is unchanged,
        a decisions-only drop when just the availability part moved, and
        a full flush when the routing part did."""
        if token == self.token:
            return
        old, width = self.token, self.routing_width
        if old is None or width is None or token[:width] != old[:width]:
            if old is not None:
                self.stats.invalidations += 1
            self._weights = None
            self._trees.clear()
        self.decisions.clear()
        self.token = token
