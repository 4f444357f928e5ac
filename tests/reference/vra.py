"""Figure 5 on the textbook kernels: the oracle for the VRA's decisions.

:class:`ReferenceVra` keeps the VRA's own candidate handling (local
shortcut, poll, error messages) and swaps what it routes on: every
decision builds the LVN table with :func:`tests.reference.lvn.weight_table`
and settles the whole graph with :func:`tests.reference.dijkstra.dijkstra`,
cold, with no memo and no goal-directed stop.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.vra import VirtualRoutingAlgorithm, VraDecision
from repro.network.routing.dijkstra import DijkstraResult
from repro.network.routing.paths import Path
from repro.network.topology import Topology
from tests.reference.dijkstra import dijkstra
from tests.reference.lvn import weight_table


class ReferenceVra(VirtualRoutingAlgorithm):
    """The VRA routing on the dict kernels (full tree, every decision)."""

    def __init__(self, topology: Topology, **kwargs):
        super().__init__(topology, **kwargs)
        self._topology = topology

    def _compute_weights(self) -> Dict[str, float]:
        return weight_table(self._topology, self._used_of, self._k, self._node_load)

    def _search(self, home_uid: str, weights: Dict[str, float]) -> DijkstraResult:
        return dijkstra(self._topology, home_uid, lambda link: weights[link.name])

    def _routing_state(
        self, home_uid: str, targets: Sequence[str]
    ) -> Tuple[Dict[str, float], DijkstraResult]:
        weights = self._compute_weights()
        return weights, self._search(home_uid, weights)

    def _audit(
        self, decision: VraDecision, available: Sequence[str]
    ) -> Tuple[Dict[str, Path], DijkstraResult]:
        search = self._search(decision.home_uid, decision.weights)
        return {uid: search.path(uid) for uid in available if search.reaches(uid)}, search
