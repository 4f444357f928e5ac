"""Shortest-path results and the paper-style Dijkstra step rows.

The VRA "run[s] the Dijkstra's routing algorithm to calculate the least
expensive paths from the client's adjacent server to all other network
nodes" (Figure 5).  The search itself is
:meth:`repro.network.compiled.TopologySnapshot.dijkstra`; this module holds
what it returns: a :class:`DijkstraResult` (distances, predecessors, and
whether it is the whole tree or a goal-directed prefix) and, in trace mode,
one :class:`DijkstraStep` per settled node in the layout of the paper's
Tables 4-5 (after reference [7], R. Jain's routing-course notes): columns
holding each destination's tentative distance ("R" while unreached) and the
tentative path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import RoutingError
from repro.network.routing.paths import Path

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

    A search without targets settles the whole graph (``complete``).  A
    goal-directed search
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
    #: ``target -> Path`` already walked (a result is never mutated).
    _paths: Dict[str, Path] = field(default_factory=dict, repr=False, compare=False)

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
        path = self._paths.get(target)
        if path is not None:
            return path
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
        path = self._paths[target] = Path(nodes=tuple(nodes), cost=cost)
        return path

    def node_path(self, target: str) -> Tuple[str, ...]:
        """Node-uid tuple of the shortest path (convenience)."""
        return self.path(target).nodes
