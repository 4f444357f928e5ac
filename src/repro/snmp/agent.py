"""Per-node SNMP agent.

An :class:`SnmpAgent` lives on one network node and exposes octet counters
for every adjacent link — the view a real poller would get from the node's
router.  Advancing a link credits the interval since *that link's* last
advance with its used bandwidth at the moment of the advance: nobody advances
agents between simulation events, so a poll reads the rate found at poll time
(and polling a subset of the links leaves the others' intervals open).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import SnmpError
from repro.network.link import Link
from repro.network.topology import Topology
from repro.snmp.counters import OctetCounter

#: The adjacent links one advance or poll covers; None means all of them.
LinkSubset = Optional[Sequence[Link]]


class SnmpAgent:
    """Counter-bearing agent for one node's adjacent links.

    In and out octets are modelled symmetrically (the link's used bandwidth
    aggregates both directions, exactly as the paper's Table 2 reports one
    traffic figure per link), so each direction carries half the traffic.
    """

    def __init__(self, topology: Topology, node_uid: str, start_time: float = 0.0):
        topology.node(node_uid)  # validate
        self._topology = topology
        self.node_uid = node_uid
        #: Latest advance: of the agent, and per link (default: the agent's).
        self._last_advance = float(start_time)
        self._advanced_at: Dict[str, float] = {}
        #: Per link: its (in, out) octet counters.
        self._counters: Dict[str, Tuple[OctetCounter, OctetCounter]] = {
            link.name: (OctetCounter(), OctetCounter())
            for link in topology.links_at(node_uid)
        }

    def advance(self, now: float, links: LinkSubset = None) -> None:
        """Integrate traffic at the links' current rates up to ``now``.

        Raises:
            SnmpError: If time moves backwards.
        """
        last = self._last_advance
        if now < last:
            raise SnmpError(
                f"agent at {self.node_uid!r}: time went backwards "
                f"({now} < {last})"
            )
        self._last_advance = now
        if links is None:
            links = self._topology.links_at(self.node_uid)
        for link in links:
            name = link.name
            elapsed = now - self._advanced_at.get(name, last)
            self._advanced_at[name] = now
            if name not in self._counters:
                # Lazily instrument links attached after the agent was
                # created (the service's runtime-expansion path).
                self._counters[name] = (OctetCounter(), OctetCounter())
            if elapsed != 0.0:
                megabits = link.used_mbps * elapsed
                # Split the aggregate figure evenly across the two directions.
                for counter in self._counters[name]:
                    counter.add_megabits(megabits / 2.0)

    def poll(self, now: float, links: LinkSubset = None) -> Dict[str, Tuple[int, int]]:
        """Advance to ``now`` and return {link name: (in octets, out octets)}.

        This is the agent's whole SNMP surface: 32-bit counter values only,
        never rates — rate recovery is the collector's job.
        """
        self.advance(now, links)
        names = self._counters if links is None else [link.name for link in links]
        return {
            name: (self._counters[name][0].value, self._counters[name][1].value)
            for name in names
        }
