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
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.network.routing.dijkstra import DijkstraResult, LinkDelta, tree_unaffected
from repro.obs.phase import NO_PHASE_TIMER, PhaseTimer
from repro.obs.registry import NULL_COUNTER, Counter, MetricsRegistry

#: Default LRU bound on cached Dijkstra trees (one per home server is the
#: steady state, so this comfortably covers topologies of ~128 nodes).
DEFAULT_TREE_CAPACITY = 128

#: Default LRU bound on whole memoized decisions; one flash crowd keys a
#: handful of (home, title, holder-signature) tuples, so this covers many
#: concurrent crowds.
DEFAULT_DECISION_CAPACITY = 4096

#: Signature of the delta probe: None means "no previous table to diff
#: against, flush fully"; otherwise the current weight table plus the link
#: deltas to revalidate cached trees against.
DeltaProbe = Callable[[], Optional[Tuple[Dict[str, float], List[LinkDelta]]]]

#: ``EpochTransition.kind`` values.
EPOCH_INITIAL = "initial"
EPOCH_FULL = "full"
EPOCH_PARTIAL = "partial"


@dataclass(frozen=True)
class EpochTransition:
    """How the routing cache absorbed one epoch change.

    Returned by :meth:`RoutingCache.sync` so layers stacked above the
    routing cache (the :class:`DecisionCache`) can scope their own
    invalidation to the same event without deriving the deltas again:

    * ``initial`` — the cache's very first epoch; nothing was cached yet.
    * ``full`` — everything was flushed (no delta probe, or the probe
      had no previous table).
    * ``partial`` — the epoch was absorbed in place: ``weights`` is the
      current LVN table and ``deltas`` lists exactly the links whose
      weight or online state moved (empty for a no-op epoch).
    """

    kind: str
    weights: Optional[Dict[str, float]] = None
    deltas: Tuple[LinkDelta, ...] = ()


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

    def sync(self, epoch: Hashable) -> Optional[EpochTransition]:
        """Bring the cache onto ``epoch``; returns how it got there.

        Called implicitly by :meth:`weights`/:meth:`tree`, and explicitly
        by the :class:`DecisionCache` layer, which forwards the returned
        :class:`EpochTransition` into its own invalidation pass.  Returns
        None when the epoch is unchanged (nothing to do).
        """
        if epoch == self._epoch:
            return None
        t_phase = self.phase_timer.start()
        try:
            return self._sync_changed(epoch)
        finally:
            self.phase_timer.stop(t_phase)

    def _sync_changed(self, epoch: Hashable) -> EpochTransition:
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
                return EpochTransition(
                    EPOCH_PARTIAL, weights=table, deltas=tuple(deltas)
                )
        initial = self._epoch is None
        if not initial:
            self.stats.full_invalidations += 1
        self._epoch = epoch
        self._weights = None
        self._trees.clear()
        return EpochTransition(EPOCH_INITIAL if initial else EPOCH_FULL)


@dataclass
class DecisionCacheStats:
    """Hit/miss/invalidation counters of one :class:`DecisionCache`.

    Attributes:
        hits: Decisions answered whole from cache.
        misses: Lookups that fell through to a full VRA run.
        full_invalidations: Epoch transitions that flushed every decision.
        partial_invalidations: Epoch transitions absorbed by revalidating
            decisions against the link deltas.
        decisions_flushed: Decisions dropped by full invalidations.
        decisions_dropped: Decisions dropped because a link delta touched
            their shortest-path tree.
        decisions_refreshed: Decisions kept across a weight-changing delta
            batch, with their audit weight table rebased onto the new
            one (choice, path and cost provably unchanged).
        evictions: Decisions dropped by the LRU bound.
    """

    hits: int = 0
    misses: int = 0
    full_invalidations: int = 0
    partial_invalidations: int = 0
    decisions_flushed: int = 0
    decisions_dropped: int = 0
    decisions_refreshed: int = 0
    evictions: int = 0

    @property
    def invalidations(self) -> int:
        """Total epoch transitions handled (full flushes + partials)."""
        return self.full_invalidations + self.partial_invalidations

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups, in [0, 1] (0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for snapshots, traces and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "full_invalidations": self.full_invalidations,
            "partial_invalidations": self.partial_invalidations,
            "decisions_flushed": self.decisions_flushed,
            "decisions_dropped": self.decisions_dropped,
            "decisions_refreshed": self.decisions_refreshed,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _DecisionEntry:
    """One memoized decision plus the state its validity hangs on."""

    decision: object
    tree: Optional[DijkstraResult]
    candidate_count: int


class DecisionCache:
    """Whole-decision memo layered above the :class:`RoutingCache`.

    Every request sharing a key — the caller builds it from the home
    server, title, per-holder availability signature and QoS class — is
    answered with the *same* :class:`~repro.core.vra.VraDecision` within
    one routing epoch, so a 10k-request flash crowd costs one Dijkstra
    run plus 10k dict hits.

    Invalidation contract (what evicts a whole decision vs. a tree):

    * A **full** epoch transition flushes everything, exactly like the
      routing cache underneath.
    * A **partial** transition (diffed epoch) drops only decisions
      whose shortest-path search (a complete tree, or the prefix within
      the chosen holder's distance) a :class:`LinkDelta` could have
      touched — the same :func:`tree_unaffected` proof the routing cache
      runs for its trees, memoized per distinct tree so a crowd of
      decisions over one tree is judged once.  Locally-served decisions
      reference no tree and survive every delta.
    * Surviving routed decisions are *refreshed*: their audit ``weights``
      table is rebased onto the new table (``dataclasses.replace`` on
      the frozen decision), because that is the table a cold run after
      the delta would embed.  Choice, path and cost are provably
      unchanged, and the decision's lazily completed audit trail is
      derived from the table it holds when read, so the refreshed
      decision stays bit-for-bit equal to a cache-off recompute.
    * Availability churn that never moves the routing epoch — a holder
      filling its last stream slot, a title evicted by the DMA — is carried
      by the *key* (the holder signatures change), not by invalidation.

    ``max_decisions=0`` disables the cache entirely: lookups miss, stores
    are dropped, and no counters move.
    """

    def __init__(self, max_decisions: int = DEFAULT_DECISION_CAPACITY):
        if max_decisions < 0:
            raise ReproError(
                f"decision cache size must be >= 0, got {max_decisions!r}"
            )
        self.max_decisions = max_decisions
        self.stats = DecisionCacheStats()
        self._entries: "OrderedDict[Hashable, _DecisionEntry]" = OrderedDict()
        self._on = max_decisions > 0
        self._full = False
        self._m_hits: Counter = NULL_COUNTER
        self._m_misses: Counter = NULL_COUNTER
        self._m_refreshed: Counter = NULL_COUNTER
        self._m_dropped: Counter = NULL_COUNTER

    @property
    def enabled(self) -> bool:
        """False when ``max_decisions`` is 0 (pass-through mode)."""
        return self.max_decisions > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[_DecisionEntry]:
        """The live entry under ``key``, or None (counted as hit/miss)."""
        if not self._on:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            self._m_misses.inc()
            return None
        self.stats.hits += 1
        self._m_hits.inc()
        if self._full:
            # LRU ordering only matters once eviction is possible; below
            # capacity the reorder is skipped to keep the hit path lean.
            self._entries.move_to_end(key)
        return entry

    def peek(self, key: Hashable) -> Optional[_DecisionEntry]:
        """The entry under ``key`` without hit/miss accounting or LRU
        reordering (introspection; the service's replay layer reads the
        candidate count it just stored)."""
        return self._entries.get(key)

    def put(
        self,
        key: Hashable,
        decision: object,
        tree: Optional[DijkstraResult],
        candidate_count: int = 0,
    ) -> None:
        """Memoize ``decision`` under ``key`` (LRU-bounded).

        Args:
            key: The full decision key; the caller guarantees that equal
                keys within one epoch imply bit-identical decisions.
            decision: The decision object to hand back on hits.
            tree: The Dijkstra tree — or goal-directed prefix — the
                decision was read from, or None for locally-served
                decisions (which then survive every link delta).
            candidate_count: Polled-up remote candidates, replayed into
                the ``vra.candidates`` histogram on hits so telemetry
                matches a cache-off run.
        """
        if not self._on:
            return
        self._entries[key] = _DecisionEntry(decision, tree, candidate_count)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_decisions:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._full = len(self._entries) >= self.max_decisions

    def apply(self, transition: Optional[EpochTransition]) -> None:
        """Absorb one routing-epoch transition (from :meth:`RoutingCache.sync`)."""
        if transition is None or transition.kind == EPOCH_INITIAL:
            return
        if transition.kind == EPOCH_FULL:
            if self._entries:
                self.stats.decisions_flushed += len(self._entries)
                self._entries.clear()
                self._full = False
            self.stats.full_invalidations += 1
            return
        self.stats.partial_invalidations += 1
        deltas = transition.deltas
        if not deltas or not self._entries:
            return
        table = transition.weights
        verdicts: Dict[int, bool] = {}
        survivors: "OrderedDict[Hashable, _DecisionEntry]" = OrderedDict()
        for key, entry in self._entries.items():
            tree = entry.tree
            if tree is None:  # local serve: no routing state involved
                survivors[key] = entry
                continue
            verdict = verdicts.get(id(tree))
            if verdict is None:
                verdict = all(tree_unaffected(tree, d) for d in deltas)
                verdicts[id(tree)] = verdict
            if not verdict:
                self.stats.decisions_dropped += 1
                self._m_dropped.inc()
                continue
            if getattr(entry.decision, "weights", None) is not table:
                self.stats.decisions_refreshed += 1
                self._m_refreshed.inc()
            # A fresh copy even when only online flags moved: it sheds an
            # audit trail already completed under the pre-delta state.
            entry.decision = replace(entry.decision, weights=table)
            survivors[key] = entry
        self._entries = survivors
        self._full = len(self._entries) >= self.max_decisions

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Resolve the ``decision.*`` counters from a registry."""
        self._m_hits = registry.counter(
            "decision.hits", subsystem="core",
            description="VRA decisions answered whole from the decision cache",
        )
        self._m_misses = registry.counter(
            "decision.misses", subsystem="core",
            description="decision-cache lookups that ran the full VRA",
        )
        self._m_refreshed = registry.counter(
            "decision.refreshed", subsystem="core",
            description="cached decisions rebased in place across link deltas",
        )
        self._m_dropped = registry.counter(
            "decision.dropped", subsystem="core",
            description="cached decisions evicted by a link delta on their tree",
        )

    def evict_server(self, uid: str) -> int:
        """Drop every cached decision whose chosen source is ``uid``.

        Circuit-breaker transitions change which servers the service's
        holder filter admits without moving the routing epoch; the
        service evicts the transitioning server's decisions here so a
        probe (or a re-opened breaker) can never replay a choice made
        under the previous breaker state.

        Returns:
            The number of decisions dropped.
        """
        if not self._entries:
            return 0
        stale = [
            key
            for key, entry in self._entries.items()
            if getattr(entry.decision, "chosen_uid", None) == uid
        ]
        for key in stale:
            del self._entries[key]
            self.stats.decisions_dropped += 1
            self._m_dropped.inc()
        if stale:
            self._full = len(self._entries) >= self.max_decisions
        return len(stale)

    def count_hit(self) -> None:
        """Count a hit answered by an outer replay layer.

        The service's same-state fast path can prove (via its freshness
        token) that a previously returned decision is still exact without
        re-entering the VRA; it calls this so hit-rate reporting matches
        what a full lookup would have counted.
        """
        self.stats.hits += 1
        self._m_hits.inc()

    def clear(self) -> None:
        """Drop all cached decisions (counters are preserved)."""
        self._entries.clear()
        self._full = False
