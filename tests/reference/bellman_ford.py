"""Bellman-Ford shortest paths: the test suite's negative-weight oracle.

The paper asserts the links are "assigned with a numeric weight of
negative value" while printing strictly positive numbers (DESIGN.md §5
erratum 3).  Dijkstra — which the paper actually runs — is only correct
for non-negative weights; Bellman-Ford is the algorithm that *would* have
been required had the weights truly been negative.  It is provided

* as an independent oracle for the Dijkstra implementation (property
  tests assert identical distances on non-negative weights), and
* to make the erratum concrete: on genuinely negative weights an
  undirected graph always contains a negative cycle (any negative edge
  traversed back and forth), which :func:`bellman_ford` detects — i.e.
  the paper's "negative weights" reading is not merely unconventional,
  it is unroutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import RoutingError, TopologyError
from repro.network.routing.paths import Path
from repro.network.topology import Topology
from tests.reference.dijkstra import WeightFn


@dataclass
class BellmanFordResult:
    """Shortest-path tree from a single source, with cycle detection.

    Attributes:
        source: Source node uid.
        distances: Uid -> shortest distance (unreachable uids absent).
        predecessors: Uid -> previous hop on the shortest path.
        negative_cycle: True when a negative cycle is reachable from the
            source, in which case distances are not meaningful.
    """

    source: str
    distances: Dict[str, float]
    predecessors: Dict[str, Optional[str]]
    negative_cycle: bool = False

    def reaches(self, target: str) -> bool:
        """True if ``target`` is reachable (and no negative cycle)."""
        return not self.negative_cycle and target in self.distances

    def cost(self, target: str) -> float:
        """Shortest distance to ``target``.

        Raises:
            RoutingError: On unreachable targets or negative cycles.
        """
        if self.negative_cycle:
            raise RoutingError(
                "distances are undefined: a negative cycle is reachable "
                f"from {self.source!r}"
            )
        try:
            return self.distances[target]
        except KeyError:
            raise RoutingError(
                f"node {target!r} is unreachable from {self.source!r}"
            ) from None

    def path(self, target: str) -> Path:
        """Shortest :class:`Path` from the source to ``target``."""
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


def bellman_ford(topology: Topology, source: str, weight: WeightFn) -> BellmanFordResult:
    """Single-source shortest paths, tolerating negative edge weights.

    Undirected edges are treated as two directed arcs of the same weight,
    so *any* reachable negative-weight link implies a negative cycle —
    which is exactly the lesson of the paper's erratum 3.

    Raises:
        TopologyError: If ``source`` is not in the topology.
    """
    if source not in topology.node_uids():
        raise TopologyError(
            f"Bellman-Ford source {source!r} is not in topology {topology.name!r}"
        )
    arcs: List[Tuple[str, str, float]] = []
    for link in topology.links():
        if not link.online:
            continue
        cost = weight(link)
        if cost != cost:  # NaN
            raise RoutingError(f"link {link.name!r} has NaN weight")
        arcs.append((link.a_uid, link.b_uid, cost))
        arcs.append((link.b_uid, link.a_uid, cost))

    distances: Dict[str, float] = {source: 0.0}
    predecessors: Dict[str, Optional[str]] = {source: None}

    for _ in range(max(topology.node_count - 1, 0)):
        changed = False
        for a, b, cost in arcs:
            if a in distances and distances[a] + cost < distances.get(b, float("inf")) - 1e-15:
                distances[b] = distances[a] + cost
                predecessors[b] = a
                changed = True
        if not changed:
            break

    negative_cycle = any(
        a in distances
        and distances[a] + cost < distances.get(b, float("inf")) - 1e-12
        for a, b, cost in arcs
    )
    return BellmanFordResult(
        source=source,
        distances=distances,
        predecessors=predecessors,
        negative_cycle=negative_cycle,
    )
