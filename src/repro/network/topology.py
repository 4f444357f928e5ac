"""Validated undirected network topology.

A :class:`Topology` owns :class:`~repro.network.node.Node` and
:class:`~repro.network.link.Link` objects and maintains the adjacency index
that both the LVN formulas (which sum over "links adjacent to node a") and
Dijkstra need.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import TopologyError
from repro.network.link import STATE_CHANGE, Link, link_key
from repro.network.node import Node


class Topology:
    """An undirected graph of nodes and capacity-limited links.

    At most one link may exist between a pair of nodes (the paper's backbone
    is a simple graph); attempting to add a parallel link raises
    :class:`~repro.errors.TopologyError`.
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._links_by_name: Dict[str, Link] = {}
        self._adjacency: Dict[str, List[Link]] = {}
        self._state_version = 0
        self._traffic_version = 0
        #: Optional listener fired (after versioning) whenever a link's
        #: online state flips, with the link.  The service wires
        #: its resilience layer here — session supervisor preemption and
        #: link circuit breakers — so fault events reach them in the same
        #: event that flipped the link.
        self.on_state_change: Optional[Callable[[Link], None]] = None

    # ------------------------------------------------------------------ #
    # change versioning (feeds the epoch-versioned routing cache)
    # ------------------------------------------------------------------ #
    @property
    def state_version(self) -> int:
        """Monotonic counter of routing-relevant *structural* changes:
        node/link additions and link online/offline transitions."""
        return self._state_version

    @property
    def traffic_version(self) -> int:
        """Monotonic counter of ground-truth used-bandwidth mutations
        (background traffic writes, flow reservations/releases)."""
        return self._traffic_version

    def _on_link_change(self, kind: str, link: Link) -> None:
        if kind == STATE_CHANGE:
            self._state_version += 1
        else:
            self._traffic_version += 1
        if kind == STATE_CHANGE and self.on_state_change is not None:
            self.on_state_change(link)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: Node) -> Node:
        """Register a node.

        Raises:
            TopologyError: If a node with the same uid already exists.
        """
        if node.uid in self._nodes:
            raise TopologyError(f"duplicate node uid {node.uid!r} in topology {self.name!r}")
        self._nodes[node.uid] = node
        self._adjacency[node.uid] = []
        self._state_version += 1
        return node

    def add_link(self, link: Link) -> Link:
        """Register a link between two already-registered nodes.

        Raises:
            TopologyError: If either endpoint is unknown, the link name is
                taken, or a link between the endpoints already exists.
        """
        for uid in link.key:
            if uid not in self._nodes:
                raise TopologyError(
                    f"link {link.name!r} references unknown node {uid!r}; "
                    "add nodes before links"
                )
        if link.key in self._links:
            raise TopologyError(
                f"a link between {link.a_uid!r} and {link.b_uid!r} already exists"
            )
        if link.name in self._links_by_name:
            raise TopologyError(f"duplicate link name {link.name!r}")
        self._links[link.key] = link
        self._links_by_name[link.name] = link
        self._adjacency[link.a_uid].append(link)
        self._adjacency[link.b_uid].append(link)
        link._version_listener = self._on_link_change
        self._state_version += 1
        return link

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def link_count(self) -> int:
        return len(self._links)

    def node(self, uid: str) -> Node:
        """Node by uid.

        Raises:
            TopologyError: If no such node exists.
        """
        try:
            return self._nodes[uid]
        except KeyError:
            raise TopologyError(f"unknown node {uid!r} in topology {self.name!r}") from None

    def has_node(self, uid: str) -> bool:
        return uid in self._nodes

    def nodes(self) -> Iterator[Node]:
        """All nodes, in insertion order."""
        return iter(self._nodes.values())

    def node_uids(self) -> List[str]:
        """All node uids, in insertion order."""
        return list(self._nodes)

    def links(self) -> Iterator[Link]:
        """All links, in insertion order."""
        return iter(self._links.values())

    def link_between(self, a_uid: str, b_uid: str) -> Link:
        """The link joining two nodes.

        Raises:
            TopologyError: If the nodes are not directly connected.
        """
        try:
            return self._links[link_key(a_uid, b_uid)]
        except KeyError:
            raise TopologyError(
                f"no link between {a_uid!r} and {b_uid!r} in topology {self.name!r}"
            ) from None

    def has_link_between(self, a_uid: str, b_uid: str) -> bool:
        if a_uid == b_uid:
            return False
        return link_key(a_uid, b_uid) in self._links

    def link_named(self, name: str) -> Link:
        """The link with the given human-readable name."""
        try:
            return self._links_by_name[name]
        except KeyError:
            raise TopologyError(f"unknown link name {name!r}") from None

    def links_at(self, uid: str) -> List[Link]:
        """Links adjacent to a node (the ``m`` set of the paper's eq. 2)."""
        if uid not in self._adjacency:
            raise TopologyError(f"unknown node {uid!r} in topology {self.name!r}")
        return list(self._adjacency[uid])

    def neighbors(self, uid: str) -> List[str]:
        """Uids of nodes directly connected to ``uid``."""
        return [link.other_end(uid) for link in self.links_at(uid)]

    def degree(self, uid: str) -> int:
        """Number of links at a node."""
        return len(self.links_at(uid))

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def is_connected(self) -> bool:
        """True if every node is reachable from every other node."""
        if not self._nodes:
            return True
        start = next(iter(self._nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            uid = frontier.pop()
            for neighbor in self.neighbors(uid):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._nodes)

    def validate(self) -> None:
        """Check structural invariants, raising on the first violation.

        Raises:
            TopologyError: If the topology has isolated nodes or is
                disconnected.  The VoD service requires every server to be
                reachable from every client.
        """
        for uid in self._nodes:
            if not self._adjacency[uid]:
                raise TopologyError(f"node {uid!r} has no links")
        if not self.is_connected():
            raise TopologyError(f"topology {self.name!r} is not connected")

    def path_links(self, node_uids: Iterable[str]) -> List[Link]:
        """The links along a node sequence.

        Raises:
            TopologyError: If consecutive nodes are not directly connected.
        """
        uids = list(node_uids)
        return [self.link_between(a, b) for a, b in zip(uids, uids[1:])]

    def total_capacity_mbps(self) -> float:
        """Sum of all link capacities (diagnostic)."""
        return sum(link.capacity_mbps for link in self._links.values())

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, nodes={self.node_count}, "
            f"links={self.link_count})"
        )
