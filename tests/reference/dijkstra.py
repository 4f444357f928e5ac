"""Textbook Dijkstra over ``topology.links_at`` with dict state: the oracle
for :meth:`repro.network.compiled.TopologySnapshot.dijkstra`.

One heap of ``(distance, uid)``, strict relaxation, lazy weight
validation in ``links_at`` order, offline links skipped before their
weight is read.  Trace mode records the paper's Tables 4-5 rows from the
dict state.  The kernel must equal it bit for bit, trace rows and dict
insertion order included.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import RoutingError, TopologyError
from repro.network.link import Link
from repro.network.routing.dijkstra import DijkstraResult, DijkstraStep
from repro.network.topology import Topology

WeightFn = Callable[[Link], float]


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
    if source not in topology.node_uids():
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
