"""The link-validation equations (1)-(4) of the paper.

Every network link gets a Link Validation Number

    LVN_i = max(NV_a, NV_b) + LU_i                                   (1)

where the node validation NV of a node is its aggregate adjacent-link
utilisation

    NV_x = sum(UBW_m) / sum(LBW_m)   over links m adjacent to x      (2)

and the link utilisation term weighs the link's own traffic by its size

    LU_i = LT_i * LV_i                                               (3)
    LV_i = link_bandwidth_Mbps / K,  with K ~ 10                     (4)

LT_i is used-over-total bandwidth of the link itself (the paper's eq. 5).
Larger LVN = worse link.  The paper calls the weights "of negative value"
but every formula and printed number is a positive cost; we follow the
numbers (DESIGN.md §5, erratum 3).

All functions take an optional ``used_of`` provider mapping a link to its
used bandwidth in Mbps.  The default reads ground truth from the link
object; the VoD service instead passes a database-backed provider so the
VRA sees exactly what the SNMP statistics module last reported — including
its staleness, which is part of the system being reproduced.

These scalar functions are the paper's public equations.  Whole tables —
what the VRA routes on — come from the one routing kernel,
:class:`repro.network.compiled.TopologySnapshot`, which computes the same
numbers over flat arrays (:func:`weight_table` answers from it).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ReproError
from repro.network.compiled import TopologySnapshot
from repro.network.link import Link
from repro.network.topology import Topology

#: The paper: "The Normalization Constant suggested is an integer with a
#: value approaching 10."
DEFAULT_NORMALIZATION_CONSTANT = 10.0

UsedBandwidthFn = Callable[[Link], float]

#: Server-configuration extension (the paper's future work: "what the role
#: of every Server configuration factor (CPU speed, available RAM etc.) is
#: to our Video service"): an optional per-node workload term, in [0, 1],
#: added to the node validation.  None (the default everywhere) gives the
#: paper's exact equation (2).
NodeLoadFn = Callable[[str], float]


def _ground_truth(link: Link) -> float:
    return link.used_mbps


def node_validation(
    topology: Topology,
    node_uid: str,
    used_of: Optional[UsedBandwidthFn] = None,
    node_load: Optional[NodeLoadFn] = None,
) -> float:
    """Equation (2): NV of a node — aggregate utilisation of its links.

    Args:
        topology: The network.
        node_uid: The node whose validation to compute.
        used_of: Used-bandwidth provider; defaults to link ground truth.
        node_load: Optional server-workload term (the future-work
            extension); when given, its value for this node — expected in
            [0, 1], e.g. CPU utilisation or stream-slot occupancy — is
            added to the link-based ratio.

    Returns:
        sum(UBW_m) / sum(LBW_m) over the node's adjacent links, plus the
        optional workload term.

    Raises:
        ReproError: If the node has no links (the ratio is undefined; the
            topology validator normally excludes this), or if the workload
            term is negative.
    """
    used = _ground_truth if used_of is None else used_of
    links = topology.links_at(node_uid)
    if not links:
        raise ReproError(f"node {node_uid!r} has no adjacent links; NV undefined")
    online = [link for link in links if link.online]
    if not online:
        # Every adjacent link failed: the node is unreachable, so its NV
        # can never influence a usable path; 0 keeps the table total.
        ratio = 0.0
    else:
        total_used = sum(used(link) for link in online)
        total_capacity = sum(link.capacity_mbps for link in online)
        ratio = total_used / total_capacity
    if node_load is None:
        return ratio
    load = node_load(node_uid)
    if load < 0.0:
        raise ReproError(f"node load for {node_uid!r} cannot be negative, got {load!r}")
    return ratio + load


def link_value(link: Link, normalization_constant: float = DEFAULT_NORMALIZATION_CONSTANT) -> float:
    """Equation (4): LV — points granted per the link's total bandwidth."""
    if not (normalization_constant > 0.0):
        raise ReproError(
            f"normalization constant must be positive, got {normalization_constant!r}"
        )
    return link.capacity_mbps / normalization_constant


def link_traffic(link: Link, used_of: Optional[UsedBandwidthFn] = None) -> float:
    """LT: the link's own used-over-total bandwidth (eq. 5), in [0, 1]."""
    used = _ground_truth if used_of is None else used_of
    return used(link) / link.capacity_mbps


def link_utilization_term(
    link: Link,
    used_of: Optional[UsedBandwidthFn] = None,
    normalization_constant: float = DEFAULT_NORMALIZATION_CONSTANT,
) -> float:
    """Equation (3): LU = LT * LV, the link's traffic aggravation term."""
    return link_traffic(link, used_of) * link_value(link, normalization_constant)


def link_validation_number(
    topology: Topology,
    link: Link,
    used_of: Optional[UsedBandwidthFn] = None,
    normalization_constant: float = DEFAULT_NORMALIZATION_CONSTANT,
    node_load: Optional[NodeLoadFn] = None,
) -> float:
    """Equation (1): the LVN weight the VRA assigns to a link.

    The first term is the worse of the two endpoint node validations (the
    performance burden of the adjacent nodes); the second is the link's own
    traffic aggravation.
    """
    nv_a = node_validation(topology, link.a_uid, used_of, node_load)
    nv_b = node_validation(topology, link.b_uid, used_of, node_load)
    return max(nv_a, nv_b) + link_utilization_term(link, used_of, normalization_constant)


def weight_table(
    topology: Topology,
    used_of: Optional[UsedBandwidthFn] = None,
    normalization_constant: float = DEFAULT_NORMALIZATION_CONSTANT,
    node_load: Optional[NodeLoadFn] = None,
) -> Dict[str, float]:
    """LVN for every link of the topology, keyed by link name.

    Answered by the routing kernel
    (:meth:`repro.network.compiled.TopologySnapshot.weight_table`), which
    computes each node validation once rather than twice per link — one
    table costs O(nodes + links) — and equals
    :func:`link_validation_number` per link bit for bit.
    """
    return TopologySnapshot(topology).weight_table(used_of, normalization_constant, node_load)
