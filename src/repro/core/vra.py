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
print.  It never carries a step table: the Tables 4-5 printers ask
:func:`~repro.network.routing.dijkstra.dijkstra` for one themselves.
Choosing only needs the *nearest* available holder, so the compiled path
searches no further than that and completes the trail on first read
(DESIGN.md §5b.12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.lvn import (
    DEFAULT_NORMALIZATION_CONSTANT,
    NodeLoadFn,
    UsedBandwidthFn,
    weight_table,
)
from repro.errors import (
    NoReachableHolderError,
    RoutingError,
    TitleUnavailableError,
)
from repro.network.compiled import TopologySnapshot
from repro.network.routing.cache import (
    DecisionCacheStats,
    RoutingCache,
    RoutingCacheStats,
)
from repro.obs.registry import MetricsRegistry
from repro.network.routing.dijkstra import DijkstraResult, dijkstra
from repro.network.routing.paths import Path
from repro.network.topology import Topology

#: Poll callback: may a given server currently provide the title?
PollFn = Callable[[str], bool]

#: Memo-token provider: a hashable that changes whenever any input of the
#: LVN equations or Dijkstra (for a service: of a decision) could have.
EpochFn = Callable[[], Hashable]

#: ``weights -> (candidate_paths, dijkstra_result)`` of one decision.
AuditFn = Callable[[Dict[str, float]], Tuple[Dict[str, Path], Optional[DijkstraResult]]]


@dataclass(frozen=True)
class VraDecision:
    """The outcome of one VRA run.

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
            service layer (``dataclasses.replace``), never by the VRA.
        audit_of: Derives ``candidate_paths`` and ``dijkstra_result`` from
            ``weights`` on first read (None: no candidates, no tree).  A
            copy made by ``dataclasses.replace`` derives them afresh from
            *its* ``weights``; read them while the decision is current —
            the derivation sees the topology's online state at read time.
    """

    title_id: str
    home_uid: str
    chosen_uid: str
    served_locally: bool
    path: Path
    weights: Dict[str, float] = field(default_factory=dict)
    polled_out: Sequence[str] = ()
    candidate_count: int = 0
    degraded: bool = False
    audit_of: Optional[AuditFn] = field(default=None, repr=False, compare=False)

    @cached_property
    def _audit(self) -> Tuple[Dict[str, Path], Optional[DijkstraResult]]:
        return ({}, None) if self.audit_of is None else self.audit_of(self.weights)

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
        epoch_of: Optional memo-token provider.  When given, the VRA owns
            the epoch memo ``cache`` (:mod:`repro.network.routing.cache`);
            None (the default) recomputes everything per decision,
            exactly the paper's Figure 5.
        routing_width: Leading token entries forming its routing part
            (None: all of it).
        metrics: Optional telemetry registry; when given (and enabled)
            the VRA counts decisions / local serves and records a
            candidate-count histogram under the ``vra.*`` families.
        compiled: Route weight-table builds and Dijkstra runs through the
            array-compiled :class:`~repro.network.compiled.TopologySnapshot`
            (bit-for-bit identical output).  Ignored under ``node_load``
            (the kernel implements only the paper's exact eq. 2).
    """

    def __init__(
        self,
        topology: Topology,
        used_of: Optional[UsedBandwidthFn] = None,
        normalization_constant: float = DEFAULT_NORMALIZATION_CONSTANT,
        node_load: Optional[NodeLoadFn] = None,
        epoch_of: Optional[EpochFn] = None,
        routing_width: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        compiled: bool = False,
    ):
        self._topology = topology
        self._used_of = used_of
        self._k = normalization_constant
        self._node_load = node_load
        self._snapshot: Optional[TopologySnapshot] = (
            TopologySnapshot(topology) if compiled and node_load is None else None
        )
        self.cache: Optional[RoutingCache] = (
            RoutingCache(epoch_of, routing_width) if epoch_of is not None else None
        )
        self._runs = 0
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
        return self._runs + (self.cache.decision_stats.hits if self.cache else 0)

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
            return self.cache.weights(self.cache.current(), self._compute_weights)
        return self._compute_weights()

    def _compute_weights(self) -> Dict[str, float]:
        """One cold build of the LVN table — the only builder there is."""
        if self._snapshot is not None:
            return self._snapshot.weight_table(self._used_of, self._k)
        return weight_table(self._topology, self._used_of, self._k, self._node_load)

    def _routing_state(
        self, home_uid: str, targets: Sequence[str]
    ) -> "tuple[Dict[str, float], DijkstraResult]":
        """The LVN table and shortest-path search for one decision.

        The compiled path searches only as far as the nearest of
        ``targets`` (the available holders); the python path settles
        everything.  With the memo on, both come from it under the one
        synced token (so the pair is always mutually consistent);
        cached decisions share the table/search objects, which callers
        treat as read-only.
        """
        if self.cache is None:
            weights = self._compute_weights()
            return weights, self._run_dijkstra(home_uid, weights, targets)
        token = self.cache.current()
        weights = self.cache.weights(token, self._compute_weights)
        result = self.cache.tree(
            token, home_uid, lambda: self._run_dijkstra(home_uid, weights, targets), targets
        )
        return weights, result

    def _run_dijkstra(
        self, home_uid: str, weights: Dict[str, float], targets: Sequence[str] = ()
    ) -> DijkstraResult:
        if self._snapshot is not None:
            return self._snapshot.dijkstra(home_uid, weights, targets)
        return dijkstra(self._topology, home_uid, weight=lambda link: weights[link.name])

    def _audit(
        self, home_uid: str, available: Sequence[str], search: DijkstraResult,
        weights: Dict[str, float],
    ) -> Tuple[Dict[str, Path], DijkstraResult]:
        """A routed decision's ``(candidate_paths, dijkstra_result)``.

        The python path's search is the complete tree, so it is the audit.
        A compiled search is a prefix: the audit is a full run under
        ``weights``, the table the decision holds *now* — what a cold
        decision would embed.
        """
        if self._snapshot is not None:
            search = self._snapshot.dijkstra(home_uid, weights)
        return {uid: search.path(uid) for uid in available if search.reaches(uid)}, search

    def decide(
        self,
        home_uid: str,
        title_id: str,
        holders: Iterable[str],
        poll: Optional[PollFn] = None,
    ) -> VraDecision:
        """Run Figure 5 for one request.

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
        self._runs += 1
        self._m_decisions.inc()
        # Normalize once: the caller may hand us any iterable (generator,
        # set, database list); one pass builds the ordered, deduplicated
        # tuple every later step works from.
        holder_list = tuple(dict.fromkeys(holders))
        if not holder_list:
            raise TitleUnavailableError(
                f"no server in the network has title {title_id!r}"
            )
        poll_fn = poll if poll is not None else (lambda _uid: True)

        # Figure 5: "IF the adjacent to the client video server can provide
        # the requested video THEN authorize ... QUIT".
        if home_uid in holder_list and poll_fn(home_uid):
            self._m_local_serves.inc()
            return VraDecision(
                title_id=title_id,
                home_uid=home_uid,
                chosen_uid=home_uid,
                served_locally=True,
                path=Path(nodes=(home_uid,), cost=0.0),
            )

        # Single pass: each remote holder is polled exactly once and lands
        # in exactly one of the two buckets.
        available: List[str] = []
        rejected: List[str] = []
        for uid in holder_list:
            if uid == home_uid:
                continue
            (available if poll_fn(uid) else rejected).append(uid)
        polled_out = tuple(rejected)
        self._m_candidates.observe(len(available))
        if not available:
            raise RoutingError(
                f"title {title_id!r}: every holder {list(holder_list)} polled "
                "out or is the (title-less) home server"
            )

        weights, result = self._routing_state(home_uid, available)

        # "From those alternative least cost paths choose the one with the
        # smallest cost."  Ties break on server uid for determinism.  A
        # search that stopped at the nearest holder also holds every holder
        # tying with it, so this is the global minimum.
        distances = result.distances
        reachable = [(distances[uid], uid) for uid in available if uid in distances]
        if not reachable:
            # The partition case: holders answered the poll but every path
            # from the home server is severed.  A distinct subclass so the
            # session retry loop / try_decide can treat it as transient.
            raise NoReachableHolderError(
                f"title {title_id!r}: no candidate server {available} is "
                f"reachable from home server {home_uid!r}"
            )
        chosen_uid = min(reachable)[1]
        return VraDecision(
            title_id=title_id,
            home_uid=home_uid,
            chosen_uid=chosen_uid,
            served_locally=False,
            path=result.path(chosen_uid),
            weights=weights,
            polled_out=polled_out,
            candidate_count=len(available),
            audit_of=partial(self._audit, home_uid, available, result),
        )
