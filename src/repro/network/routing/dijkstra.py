"""From-scratch Dijkstra shortest paths with a paper-style step trace.

The VRA "run[s] the Dijkstra's routing algorithm to calculate the least
expensive paths from the client's adjacent server to all other network
nodes" (Figure 5).  :func:`dijkstra` implements that over arbitrary
non-negative link weights.

Trace mode reproduces the tabular presentation of the paper's Tables 4-5
(after reference [7], R. Jain's routing-course notes): one row per settled
node, columns holding each destination's tentative distance ("R" while
unreached) and the tentative path.  Note that the paper's own Table 4
contains a missed relaxation (DESIGN.md §5); this implementation performs
*all* relaxations, so its Experiment A row differs from the misprinted one —
the benchmark reports the delta explicitly.

Determinism contract: ties are broken by node uid (not by relaxation
history), and a relaxation only wins on a *strict* improvement.  The
result is therefore a pure function of (topology, online set, weights),
which is what lets :func:`tree_unaffected` prove that a cached tree is
bit-for-bit identical to a fresh run after a set of link deltas.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import RoutingError, TopologyError
from repro.network.link import Link
from repro.network.routing.paths import Path
from repro.network.topology import Topology

WeightFn = Callable[[Link], float]

#: Marker used in trace rows for a destination not yet reached — the paper's
#: tables print "R" (for "unReachable so far").
UNREACHED = "R"


@dataclass(frozen=True)
class DijkstraStep:
    """One row of the paper-style Dijkstra table.

    Attributes:
        step: 1-based settlement count.
        settled: Uids settled so far, in settlement order.
        distances: Destination uid -> tentative distance (unreached nodes
            are absent).
        paths: Destination uid -> tentative path node tuple.
    """

    step: int
    settled: Tuple[str, ...]
    distances: Dict[str, float]
    paths: Dict[str, Tuple[str, ...]]

    def distance_label(self, uid: str, digits: int = 3) -> str:
        """Formatted tentative distance, or ``"R"`` when unreached."""
        if uid not in self.distances:
            return UNREACHED
        return f"{self.distances[uid]:.{digits}f}"

    def path_label(self, uid: str) -> str:
        """Paper-style comma-joined tentative path, or ``"-"``."""
        if uid not in self.paths:
            return "-"
        return ",".join(self.paths[uid])


@dataclass
class DijkstraResult:
    """Shortest-path tree from a single source, or a prefix of it.

    :func:`dijkstra` always settles the whole graph (``complete``).  The
    compiled goal-directed search
    (:meth:`repro.network.compiled.TopologySnapshot.dijkstra` with
    targets) may stop early; what it returns is then a *prefix* of the
    full tree — exactly the nodes whose final distance is ``<= radius``,
    with the distances, predecessors and relative insertion order the full
    run gives them.  A node absent from a prefix is either unreachable or
    farther than ``radius``; only a complete result tells the two apart.

    Attributes:
        source: Source node uid.
        distances: Uid -> final shortest distance (unreachable uids — and,
            in a prefix, uids beyond ``radius`` — absent).
        predecessors: Uid -> previous hop on the shortest path.
        steps: Trace rows (empty unless trace mode was requested).
        complete: True when every reachable node was settled.
        radius: Distance up to which the search settled every node
            (``inf`` for a complete result).
    """

    source: str
    distances: Dict[str, float]
    predecessors: Dict[str, Optional[str]]
    steps: List[DijkstraStep] = field(default_factory=list)
    complete: bool = True
    radius: float = float("inf")

    def reaches(self, target: str) -> bool:
        """True if ``target`` is reachable from the source."""
        return target in self.distances

    def cost(self, target: str) -> float:
        """Shortest distance to ``target``.

        Raises:
            RoutingError: If ``target`` is unreachable.
        """
        try:
            return self.distances[target]
        except KeyError:
            raise RoutingError(
                f"node {target!r} is unreachable from {self.source!r}"
            ) from None

    def path(self, target: str) -> Path:
        """Shortest :class:`Path` from the source to ``target``.

        Raises:
            RoutingError: If ``target`` is unreachable.
        """
        cost = self.cost(target)
        nodes: List[str] = []
        cursor: Optional[str] = target
        while cursor is not None:
            nodes.append(cursor)
            cursor = self.predecessors.get(cursor)
        nodes.reverse()
        if nodes[0] != self.source:
            raise RoutingError(
                f"broken predecessor chain for {target!r} from {self.source!r}"
            )
        return Path(nodes=tuple(nodes), cost=cost)

    def node_path(self, target: str) -> Tuple[str, ...]:
        """Node-uid tuple of the shortest path (convenience)."""
        return self.path(target).nodes


def dijkstra(
    topology: Topology,
    source: str,
    weight: WeightFn,
    trace: bool = False,
) -> DijkstraResult:
    """Single-source shortest paths over non-negative link weights.

    Args:
        topology: The network to route over.
        source: Source node uid (the client's home server in the VRA).
        weight: Function mapping each :class:`Link` to its cost — the VRA
            passes the LVN of the link.
        trace: When True, record a :class:`DijkstraStep` per settled node in
            the layout of the paper's Tables 4-5.

    Returns:
        A :class:`DijkstraResult` with distances, predecessors and the
        optional trace.

    Raises:
        TopologyError: If ``source`` is not in the topology.
        RoutingError: If any link weight is negative or NaN.
    """
    if not topology.has_node(source):
        raise TopologyError(f"Dijkstra source {source!r} is not in topology {topology.name!r}")

    distances: Dict[str, float] = {source: 0.0}
    predecessors: Dict[str, Optional[str]] = {source: None}
    settled: List[str] = []
    settled_set = set()
    steps: List[DijkstraStep] = []
    # Ties break on the node uid, so settlement order — and therefore the
    # predecessor tree — depends only on the final weights, never on the
    # order relaxations happened to occur in.  The tree-revalidation rules
    # of :func:`tree_unaffected` rely on this.
    heap: List[Tuple[float, str]] = [(0.0, source)]

    while heap:
        dist, uid = heapq.heappop(heap)
        if uid in settled_set:
            continue
        settled_set.add(uid)
        settled.append(uid)
        for link in topology.links_at(uid):
            if not link.online:
                continue
            cost = weight(link)
            if not (cost >= 0.0):  # rejects negatives and NaN
                raise RoutingError(
                    f"link {link.name!r} has invalid weight {cost!r}; "
                    "Dijkstra requires non-negative weights"
                )
            neighbor = link.other_end(uid)
            if neighbor in settled_set:
                continue
            candidate = dist + cost
            if candidate < distances.get(neighbor, float("inf")):
                distances[neighbor] = candidate
                predecessors[neighbor] = uid
                heapq.heappush(heap, (candidate, neighbor))
        if trace:
            steps.append(_snapshot_step(len(steps) + 1, settled, distances, predecessors, source))

    return DijkstraResult(
        source=source, distances=distances, predecessors=predecessors, steps=steps
    )


@dataclass(frozen=True)
class LinkDelta:
    """One link's routing-relevant change between two weight snapshots.

    Produced by :func:`link_deltas` and consumed by
    :func:`tree_unaffected` to decide whether a cached Dijkstra tree is
    still bit-for-bit valid.

    Attributes:
        link: The link that changed.
        old_weight: LVN before the change (None if the link is new).
        new_weight: LVN after the change.
        was_online: Online state before the change (False for new links).
        now_online: Online state after the change.
    """

    link: Link
    old_weight: Optional[float]
    new_weight: float
    was_online: bool
    now_online: bool


def link_deltas(
    links: Iterable[Link],
    old_weights: Mapping[str, float],
    was_online: Mapping[str, bool],
    new_weights: Mapping[str, float],
) -> List[LinkDelta]:
    """Every link whose weight or online flag differs between two epochs.

    ``old_weights`` / ``was_online`` describe the previous epoch,
    ``new_weights`` and the links' live ``online`` flags the current one.
    An online flip is a delta even at an identical weight (Dijkstra skips
    offline links); a link absent from the previous epoch reports
    ``old_weight=None, was_online=False``.
    """
    deltas: List[LinkDelta] = []
    for link in links:
        name = link.name
        old = old_weights.get(name)
        before = was_online.get(name, False)
        new = new_weights[name]
        now = link.online
        if old != new or before != now:
            deltas.append(LinkDelta(link, old, new, before, now))
    return deltas


def tree_unaffected(result: DijkstraResult, delta: LinkDelta) -> bool:
    """True if ``delta`` provably leaves ``result`` bit-for-bit identical.

    The rules are sound but conservative: a True verdict guarantees that a
    fresh run over the post-delta weights — :func:`dijkstra` for a
    complete result, the same goal-directed search for a prefix — would
    return the exact distances and predecessors already cached; a False
    verdict only means the proof failed, and the caller re-roots from
    scratch.

    Soundness leans on the determinism contract (uid tie-break + strict
    relaxation): the final predecessor of a node is the earliest-settled
    neighbor achieving its final distance, so transient relaxations that a
    changed link adds or removes cannot alter the output as long as no
    final distance moves and no settlement-order tie is disturbed.

    Per-delta rules (``u``/``v`` the endpoints, ``d`` the cached
    distances, ``radius`` the result's settled radius — ``inf`` for a
    complete tree, where "outside" can only mean unreachable):

    * offline before and after — the link is invisible to both runs.
    * online afterwards with a negative or NaN weight — never proven; the
      fresh run decides whether the link is scanned and raises.
    * both endpoints outside — the link lies wholly beyond the radius (or
      outside the routed component): no path through it can reach, or
      bring a node to within, the radius.
    * one endpoint inside (``d_in``) — safe iff the link is offline
      afterwards (it led outwards, so it carried no cached path) or
      ``d_in + w_new > radius`` *strictly*: the outside endpoint stays
      outside.  Equality would settle it in the tie drain.  For a
      complete tree this is never true of an online link (new
      reachability).
    * both inside, removal (online -> offline): safe iff the link is not
      a tree edge; every cached shortest path survives, so no distance
      moves.
    * both inside, insertion (offline -> online, or a brand-new link):
      safe iff ``min(du, dv) + w_new > max(du, dv)`` *strictly* —
      equality would let the new edge become the earliest-settled
      achiever and steal a predecessor.
    * both inside, weight change on a live link: unsafe on a tree edge;
      on a non-tree edge, treat as remove-then-insert (the strict bound
      above, with the new weight).

    The rules compose: a batch of deltas that each pass individually is
    jointly safe, because passing removals keep every cached distance
    achievable and passing insertions keep every cached distance optimal
    and every outside node outside.  A surviving prefix is only ever
    *read*; anything beyond its radius is searched afresh under the
    current weights.
    """
    if not delta.now_online:
        if not delta.was_online:
            return True
    elif not (delta.new_weight >= 0.0):
        return False

    u, v = delta.link.a_uid, delta.link.b_uid
    du = result.distances.get(u)
    dv = result.distances.get(v)
    if du is None or dv is None:
        if (du is None and dv is None) or not delta.now_online:
            return True
        return (dv if du is None else du) + delta.new_weight > result.radius

    preds = result.predecessors
    is_tree_edge = preds.get(u) == v or preds.get(v) == u
    if not delta.now_online:
        return not is_tree_edge
    if delta.was_online and is_tree_edge:
        return False
    return min(du, dv) + delta.new_weight > max(du, dv)


def _snapshot_step(
    step: int,
    settled: List[str],
    distances: Dict[str, float],
    predecessors: Dict[str, Optional[str]],
    source: str,
) -> DijkstraStep:
    """Capture the tentative table after a settlement, paper-style."""
    dist_snapshot: Dict[str, float] = {}
    path_snapshot: Dict[str, Tuple[str, ...]] = {}
    for uid, dist in distances.items():
        if uid == source:
            continue
        dist_snapshot[uid] = dist
        nodes: List[str] = []
        cursor: Optional[str] = uid
        while cursor is not None:
            nodes.append(cursor)
            cursor = predecessors.get(cursor)
        nodes.reverse()
        path_snapshot[uid] = tuple(nodes)
    return DijkstraStep(
        step=step,
        settled=tuple(settled),
        distances=dist_snapshot,
        paths=path_snapshot,
    )
