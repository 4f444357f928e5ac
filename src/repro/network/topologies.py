"""Synthetic topology generator: a seeded random connected graph.

The paper argues the service suits "a large variety of diverse networks".
:func:`random_topology` builds the synthetic backbones the benchmarks use
(the 200-node churn workload, the X3 selection baselines).  Any other shape
is a JSON file: ``repro export-grnet`` writes the GRNET template, edit it,
and ``repro simulate --topology FILE`` runs on it; in code, build a
:class:`~repro.network.topology.Topology` node by node.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.errors import TopologyError
from repro.network.link import Link
from repro.network.node import Node
from repro.network.topology import Topology


def _add_nodes(topology: Topology, count: int, prefix: str) -> List[str]:
    uids = [f"{prefix}{i}" for i in range(count)]
    for uid in uids:
        topology.add_node(Node(uid))
    return uids


def random_topology(
    node_count: int,
    extra_links: int = 0,
    capacity_mbps: float = 10.0,
    rng: Optional[random.Random] = None,
) -> Topology:
    """A connected random graph: random spanning tree + extra chords.

    Args:
        node_count: Number of nodes.
        extra_links: Chords added beyond the spanning tree (duplicates are
            re-drawn; saturating the clique stops early).
        capacity_mbps: Uniform link capacity.
        rng: Randomness source, for reproducibility.

    Raises:
        TopologyError: If fewer than two nodes are requested.
    """
    if node_count < 2:
        raise TopologyError(f"random topology needs >= 2 nodes, got {node_count}")
    if extra_links < 0:
        raise TopologyError(f"extra_links must be >= 0, got {extra_links}")
    rng = rng if rng is not None else random.Random(0)
    topology = Topology(name=f"random-{node_count}")
    uids = _add_nodes(topology, node_count, "N")
    for i in range(1, node_count):
        j = rng.randrange(i)
        topology.add_link(Link(uids[i], uids[j], capacity_mbps=capacity_mbps))
    max_links = node_count * (node_count - 1) // 2
    added = 0
    attempts = 0
    while added < extra_links and topology.link_count < max_links and attempts < 50 * extra_links + 50:
        attempts += 1
        a, b = rng.sample(uids, 2)
        if not topology.has_link_between(a, b):
            topology.add_link(Link(a, b, capacity_mbps=capacity_mbps))
            added += 1
    topology.validate()
    return topology
