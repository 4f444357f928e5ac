"""Routing algorithms over :class:`~repro.network.topology.Topology`.

:mod:`repro.network.routing.dijkstra` is a from-scratch Dijkstra used by the
paper's VRA; it offers a *trace mode* that records the per-step tentative
distance table in exactly the layout of the paper's Tables 4 and 5.
"""

from repro.network.routing.cache import (
    DecisionCacheStats,
    RoutingCache,
    RoutingCacheStats,
)
from repro.network.routing.dijkstra import DijkstraResult, DijkstraStep, dijkstra
from repro.network.routing.paths import Path

__all__ = [
    "DecisionCacheStats",
    "DijkstraResult",
    "DijkstraStep",
    "Path",
    "RoutingCache",
    "RoutingCacheStats",
    "dijkstra",
]
