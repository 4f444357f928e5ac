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
which is what lets a tree cached under one routing epoch stand in for a
fresh run anywhere in that epoch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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
    # order relaxations happened to occur in.
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
