"""Network model substrate.

The paper assumes "a network the participating nodes of which are known in
advance" with specific, limited per-link bandwidth.  This subpackage models
exactly that: named nodes (:mod:`repro.network.node`), undirected
capacity-limited links (:mod:`repro.network.link`), a validated topology
(:mod:`repro.network.topology`), bandwidth reservation/flow accounting
(:mod:`repro.network.flows`), from-scratch Dijkstra routing with a
paper-style step-table trace (:mod:`repro.network.routing`), and the GRNET
backbone of the paper's Figure 6 plus the Table 2 traffic trace
(:mod:`repro.network.grnet`).
"""

from repro.network.link import Link
from repro.network.node import Node
from repro.network.topology import Topology
from repro.network.flows import Flow, FlowManager
from repro.network.routing.dijkstra import DijkstraResult, DijkstraStep, dijkstra
from repro.network.routing.paths import Path
from repro.network.topologies import (
    grid_topology,
    line_topology,
    random_topology,
    ring_topology,
    star_topology,
    tree_topology,
)

__all__ = [
    "DijkstraResult",
    "DijkstraStep",
    "Flow",
    "FlowManager",
    "Link",
    "Node",
    "Path",
    "Topology",
    "dijkstra",
    "grid_topology",
    "line_topology",
    "random_topology",
    "ring_topology",
    "star_topology",
    "tree_topology",
]
