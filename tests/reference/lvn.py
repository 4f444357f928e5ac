"""The LVN table from the scalar equations (1)-(4), node by node: the
oracle for :meth:`repro.network.compiled.TopologySnapshot.weight_table`.

Each NV is :func:`repro.core.lvn.node_validation` (a python ``sum()`` over
the node's online links in ``links_at`` order, plus the load term), and
each link weight is the worse endpoint NV plus
:func:`repro.core.lvn.link_utilization_term`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.lvn import (
    DEFAULT_NORMALIZATION_CONSTANT,
    NodeLoadFn,
    UsedBandwidthFn,
    link_utilization_term,
    node_validation,
)
from repro.network.topology import Topology


def weight_table(
    topology: Topology,
    used_of: Optional[UsedBandwidthFn] = None,
    normalization_constant: float = DEFAULT_NORMALIZATION_CONSTANT,
    node_load: Optional[NodeLoadFn] = None,
) -> Dict[str, float]:
    """LVN for every link of the topology, keyed by link name."""
    return weight_table_with_nv(topology, used_of, normalization_constant, node_load)[0]


def weight_table_with_nv(
    topology: Topology,
    used_of: Optional[UsedBandwidthFn] = None,
    normalization_constant: float = DEFAULT_NORMALIZATION_CONSTANT,
    node_load: Optional[NodeLoadFn] = None,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """:func:`weight_table` plus the per-node NV map it was built from."""
    nv: Dict[str, float] = {
        node.uid: node_validation(topology, node.uid, used_of, node_load)
        for node in topology.nodes()
    }
    table: Dict[str, float] = {}
    for link in topology.links():
        lu = link_utilization_term(link, used_of, normalization_constant)
        table[link.name] = max(nv[link.a_uid], nv[link.b_uid]) + lu
    return table, nv
