"""Routing results and the epoch memo over :class:`~repro.network.topology.Topology`.

The search itself is the routing kernel's
(:meth:`repro.network.compiled.TopologySnapshot.dijkstra`); this package
holds its results (:mod:`repro.network.routing.dijkstra`, including the
per-step tentative distance rows of the paper's Tables 4 and 5), paths,
and the epoch memo in front of the VRA (:mod:`repro.network.routing.cache`).
"""

from repro.network.routing.cache import (
    DecisionCacheStats,
    RoutingCache,
    RoutingCacheStats,
)
from repro.network.routing.dijkstra import DijkstraResult, DijkstraStep
from repro.network.routing.paths import Path

__all__ = [
    "DecisionCacheStats",
    "DijkstraResult",
    "DijkstraStep",
    "Path",
    "RoutingCache",
    "RoutingCacheStats",
]
