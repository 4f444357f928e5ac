"""The Virtual Routing Algorithm (paper Figure 5).

Given a client request, the VRA:

1. determines the client's *home server* (the server the client is directly
   connected to);
2. if the home server can provide the title, serves locally and quits;
3. otherwise lists every server holding the title, polls them for
   availability, computes the LVN of every link (equations 1-4), runs
   Dijkstra from the home server over those weights, and picks the
   candidate whose least-cost path is cheapest.

The decision object exposes the complete audit trail — weight table, Dijkstra
result, every candidate's best path — which is what the case-study benchmarks
print.  It never carries a step table: the Tables 4-5 printers ask the
routing kernel for a traced search themselves.  Choosing only needs the
*nearest* available holder, so the search goes no further than that and
the trail is completed on first read (DESIGN.md §5b.12).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.lvn import DEFAULT_NORMALIZATION_CONSTANT, NodeLoadFn, UsedBandwidthFn
from repro.errors import (
    NoReachableHolderError,
    RoutingError,
    TitleUnavailableError,
)
from repro.network.compiled import TopologySnapshot
from repro.network.routing.cache import (
    DecisionCacheStats,
    Route,
    RoutingCache,
    RoutingCacheStats,
)
from repro.obs.registry import MetricsRegistry
from repro.network.routing.dijkstra import DijkstraResult
from repro.network.routing.paths import Path
from repro.network.topology import Topology

#: Poll callback: may a given server currently provide the title?
PollFn = Callable[[str], bool]

#: ``(derive, *inputs)`` of one decision's audit: ``derive(decision,
#: *inputs)`` gives ``(candidate_paths, dijkstra_result)``.  A plain tuple,
#: so a routed miss allocates no closure for it.
AuditOf = Tuple[Callable[..., Tuple[Dict[str, Path], Optional[DijkstraResult]]], ...]

#: The weight table of a decision that routed nothing (read-only, shared).
_NO_WEIGHTS: Dict[str, float] = {}


class _DecisionFields(NamedTuple):
    title_id: str
    home_uid: str
    chosen_uid: str
    served_locally: bool
    path: Path
    weights: Dict[str, float] = _NO_WEIGHTS
    polled_out: Sequence[str] = ()
    candidate_count: int = 0
    degraded: bool = False
    audit_of: Optional[AuditOf] = None


class VraDecision(_DecisionFields):
    """The outcome of one VRA run: one immutable, unhashable record.

    Built positionally on the VRA's hot paths (keywords work too).  Equal
    records agree on every field but ``audit_of``.

    Attributes:
        title_id: The requested title.
        home_uid: The client's adjacent (home) server.
        chosen_uid: The server selected to transmit the video.
        served_locally: True when the home-server shortcut fired (step 3 of
            Figure 5); in that case no routing ran and ``path`` is the
            1-node path at cost 0.
        path: Least-cost path from the home server to ``chosen_uid`` (the
            download traverses it in reverse).
        weights: The LVN table used (empty for local serves).
        polled_out: Candidates that failed the availability poll.
        candidate_count: Remote candidates that passed it (0 for local
            serves) — the ``vra.candidates`` sample, carried so that a
            replayed decision counts what a cold run would
            (:meth:`VirtualRoutingAlgorithm.count_replayed`).
        degraded: True when the decision was taken while the staleness
            guard had age-expired link stats inflated — the routing ran
            on conservative, not measured, weights.  Stamped by the
            service layer (:meth:`marked_degraded`), never by the VRA.
        audit_of: ``(derive, *inputs)``: ``derive(decision, *inputs)``
            gives ``candidate_paths`` and ``dijkstra_result`` on first
            read, from the decision's own ``home_uid`` and ``weights``
            (None: no candidates, no tree).  A copy derives them afresh
            from *its* fields; read them while the decision is current —
            the derivation sees the topology's online state at read time.
    """

    # A decision holds a dict (its weights), so it is not hashable.
    __hash__ = None  # type: ignore[assignment]

    # Only another decision can be equal: a plain tuple of the same
    # fields is not (tuple's own comparison would say it is).
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self[:-1] == other[:-1]

    def __ne__(self, other: object) -> bool:
        return not self == other

    # Every field but the audit inputs (a bound method, the candidates, a
    # search tree), which stay out of the repr as they did out of equality.
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self[:-1]))
        return f"{self.__class__.__name__}({fields})"

    def marked_degraded(self) -> "VraDecision":
        """This decision stamped ``degraded`` (the staleness guard's
        mark); the copy derives its audit afresh from its own weights."""
        return self._replace(degraded=True)

    @cached_property
    def _audit(self) -> Tuple[Dict[str, Path], Optional[DijkstraResult]]:
        audit_of = self.audit_of
        return ({}, None) if audit_of is None else audit_of[0](self, *audit_of[1:])

    @property
    def candidate_paths(self) -> Dict[str, Path]:
        """Best path per polled-up, reachable candidate server."""
        return self._audit[0]

    @property
    def dijkstra_result(self) -> Optional[DijkstraResult]:
        """Complete shortest-path tree (None for local serves)."""
        return self._audit[1]

    @property
    def cost(self) -> float:
        """Total LVN cost of the selected path (0 for local serves)."""
        return self.path.cost

    def download_route(self) -> Path:
        """The route walked by the video data: chosen server -> home."""
        return self.path.reversed()


class VirtualRoutingAlgorithm:
    """The VRA, parameterised the way the service deploys it.

    Args:
        topology: The service network.
        used_of: Used-bandwidth provider for the LVN equations; the service
            passes a database-backed reader so the VRA sees SNMP-reported
            (possibly stale) values, per the paper's data flow.
        normalization_constant: The K of equation (4); the paper suggests 10.
        node_load: Optional server-workload term folded into the node
            validations (the paper's future-work extension for "Server
            configuration factor(s)"); None gives the paper's exact eq. 2.
        memo: When true, the VRA owns the epoch memo ``cache``
            (:mod:`repro.network.routing.cache`), which its owner keeps
            current by subscribing the memo's flushes to the change
            feed; false (the default) recomputes everything per
            decision, exactly the paper's Figure 5.  Either way the LVN
            table and the search run on the one routing kernel,
            :class:`~repro.network.compiled.TopologySnapshot`.
        metrics: Optional telemetry registry; when given (and enabled)
            the VRA counts decisions / local serves and records a
            candidate-count histogram under the ``vra.*`` families.
    """

    def __init__(
        self,
        topology: Topology,
        used_of: Optional[UsedBandwidthFn] = None,
        normalization_constant: float = DEFAULT_NORMALIZATION_CONSTANT,
        node_load: Optional[NodeLoadFn] = None,
        memo: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._used_of = used_of
        self._k = normalization_constant
        self._node_load = node_load
        self._snapshot = TopologySnapshot(topology)
        self.cache: Optional[RoutingCache] = (
            RoutingCache(search=self._snapshot.dijkstra) if memo else None
        )
        self._runs = 0
        #: Bound once: a routed decision's ``audit_of`` names it.
        self._derive_audit = self._audit
        # Instruments resolve once here; a disabled registry hands back
        # shared no-ops, so the decide() hot path pays one call per event.
        registry = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self._m_decisions = registry.counter(
            "vra.decisions", subsystem="core", description="VRA runs (Figure 5)"
        )
        self._m_local_serves = registry.counter(
            "vra.local_serves",
            subsystem="core",
            description="decisions answered by the home-server shortcut",
        )
        self._m_candidates = registry.histogram(
            "vra.candidates",
            subsystem="core",
            description="available remote candidates per routed decision",
        )

    @property
    def decision_count(self) -> int:
        """Decisions answered: VRA runs plus replays of its memo."""
        return self._runs + (self.cache.decision_hits if self.cache else 0)

    @property
    def cache_stats(self) -> Optional[RoutingCacheStats]:
        """Table/tree counters of the memo, or None when it is off."""
        return self.cache.stats if self.cache is not None else None

    @property
    def decision_cache_stats(self) -> Optional[DecisionCacheStats]:
        """Whole-decision replay counters of the memo, or None when off."""
        return self.cache.decision_stats if self.cache is not None else None

    def count_replayed(self, decision: "VraDecision") -> None:
        """Telemetry parity for a decision replayed by the service's memo.

        The service hands back a previously returned decision without
        re-entering :meth:`decide`; this counts exactly what the
        :meth:`decide` call that produced it counted, so every ``vra.*``
        instrument reads the same with the memo on or off.
        """
        self._m_decisions.inc()
        if decision.served_locally:
            self._m_local_serves.inc()
        else:
            self._m_candidates.observe(decision.candidate_count)

    def weights(self) -> Dict[str, float]:
        """Current LVN table ("Calculate the Link Validation Number for
        each network link")."""
        if self.cache is not None:
            return self.cache.weights(self._compute_weights)
        return self._compute_weights()

    def _compute_weights(self) -> Dict[str, float]:
        """One cold build of the LVN table — the only builder there is."""
        return self._snapshot.weight_table(self._used_of, self._k, self._node_load)

    def _route(self, home_uid: str, available: Tuple[str, ...]) -> Optional[Route]:
        """One cold route: the cheapest of ``available`` from the home —
        ``(uid, path, table)`` — or None when none is reachable.  With the
        memo on, the table and the search (as far as the nearest of them)
        come from it, filled since its last flush; callers treat both as
        read-only."""
        cache = self.cache
        if cache is None:
            weights = self._compute_weights()
            result = self._snapshot.dijkstra(home_uid, weights, available)
        else:
            weights = cache.weights(self._compute_weights)
            result = cache.tree(home_uid, weights, available)
        # "From those alternative least cost paths choose the one with the
        # smallest cost."  Ties break on server uid for determinism.  A
        # search that stopped at the nearest holder also holds every holder
        # tying with it, so this is the global minimum.
        distances = result.distances
        best = None
        for uid in available:
            if uid in distances:
                candidate = (distances[uid], uid)
                if best is None or candidate < best:
                    best = candidate
        return None if best is None else (best[1], result.path(best[1]), weights)

    def _audit(
        self, decision: VraDecision, available: Tuple[str, ...]
    ) -> Tuple[Dict[str, Path], DijkstraResult]:
        """A routed decision's ``(candidate_paths, dijkstra_result)``.

        The decision's search is a prefix: the audit is a full run from
        the decision's home under its ``weights``, the table the decision
        holds *now* — what a cold decision would embed.
        """
        search = self._snapshot.dijkstra(decision.home_uid, decision.weights)
        return {uid: search.path(uid) for uid in available if search.reaches(uid)}, search

    def decide(
        self,
        home_uid: str,
        title_id: str,
        holders: Iterable[str],
        poll: Optional[PollFn] = None,
    ) -> VraDecision:
        """Run Figure 5 for one request: :meth:`poll`, then :meth:`route`.

        Args:
            home_uid: The client's adjacent server (already resolved from
                the client's IP by the service layer).
            title_id: The requested video title.
            holders: Servers that have the title stored (the database's
                title-location list).  Any iterable is accepted; it is
                consumed once, duplicates are dropped, and first-seen
                order is preserved.
            poll: Availability poll; servers answering False are excluded
                ("Poll all of those servers to find out which ones can
                provide the video").  Defaults to everyone-available.

        Returns:
            The :class:`VraDecision` with the full audit trail.

        Raises:
            TitleUnavailableError: If no server holds the title.
            RoutingError: If every holder polled out.
            NoReachableHolderError: If holders are available but the home
                server is partitioned from all of them.
        """
        return self.route(home_uid, title_id, *self.poll(holders, poll))

    @staticmethod
    def poll(
        holders: Iterable[str], poll: Optional[PollFn] = None
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Figure 5's "poll all of those servers": the holders, deduplicated
        in first-seen order, split into ``(answering yes, answering no)``.
        Each is polled once; with no ``poll`` every holder answers yes."""
        if poll is None:
            return tuple(dict.fromkeys(holders)), ()
        up: List[str] = []
        down: List[str] = []
        for uid in dict.fromkeys(holders):
            (up if poll(uid) else down).append(uid)
        return tuple(up), tuple(down)

    def route(
        self, home_uid: str, title_id: str, up: Tuple[str, ...], down: Tuple[str, ...]
    ) -> VraDecision:
        """Figure 5 after :meth:`poll`: the home shortcut, else the
        cheapest available holder.  One VRA run, counted as one, memo on
        or off; raises as :meth:`decide`."""
        self._runs += 1
        self._m_decisions.inc()
        # Figure 5: "IF the adjacent to the client video server can provide
        # the requested video THEN authorize ... QUIT".
        if home_uid in up:
            self._m_local_serves.inc()
            return VraDecision(
                title_id, home_uid, home_uid, True, Path(nodes=(home_uid,), cost=0.0)
            )
        if not (up or down):
            raise TitleUnavailableError(f"no server in the network has title {title_id!r}")
        polled_out = tuple(uid for uid in down if uid != home_uid) if down else down
        # The home is not in ``up``: every holder there is a candidate.
        self._m_candidates.observe(len(up))
        if not up:
            raise RoutingError(
                f"title {title_id!r}: every holder {list(down)} polled "
                "out or is the (title-less) home server"
            )
        cache = self.cache
        route = self._route(home_uid, up) if cache is None else cache.route(home_uid, up, self._route)
        if route is None:
            # The partition case: holders answered the poll but every path
            # from the home server is severed.  A distinct subclass so the
            # session retry loop can treat it as transient.
            raise NoReachableHolderError(
                f"title {title_id!r}: no candidate server {list(up)} is "
                f"reachable from home server {home_uid!r}"
            )
        chosen_uid, path, weights = route
        return VraDecision(
            title_id, home_uid, chosen_uid, False, path, weights,
            polled_out, len(up), False, (self._derive_audit, up),
        )
