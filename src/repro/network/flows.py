"""Bandwidth reservation (flow) accounting.

A *flow* is a VoD stream occupying ``rate_mbps`` along every link of a path.
The :class:`FlowManager` reserves atomically — either every link on the path
accepts the reservation or none does — so link accounting can never be left
half-updated by an admission failure mid-path.

Hot-path shape: sessions reserve and release the same few node paths over
and over, so the manager memoizes the path → link-tuple resolution (valid
forever — links are never removed and parallel links are rejected, so an
existing node pair can never resolve differently); a tuple path, which is
what routing decisions and flows carry, is the memo key as it is, with no
copy.  Reservation is check-then-commit: every link's free capacity is
validated up front with the exact acceptance test
:meth:`~repro.network.link.Link.reserve` applies, and only then are the
links mutated — a failed admission touches nothing (no reserve/rollback
churn in the link telemetry or the version counters).

A path must be simple (routing paths are; one that crosses a link twice
raises :class:`~repro.errors.FlowError`), and a refusal is predictable:
``reserve(path, rate)`` raises exactly when ``rate >
bottleneck_mbps(path) + 1e-9``.  The simulation is single-threaded, so
nothing can take the capacity between a caller's measurement and its
reservation; the streaming session therefore skips the
call when that test says it would be refused (it happens only because the
session's floor rate lifts the request above the spare capacity of a
saturated path) instead of paying for an exception per transfer step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import FlowError
from repro.network.link import Link
from repro.network.topology import Topology

#: Bound on memoized path resolutions; a pathological workload that never
#: repeats a path clears the memo instead of growing it without limit.
PATH_MEMO_CAPACITY = 4096


@dataclass(frozen=True)
class Flow:
    """An active bandwidth reservation.

    Attributes:
        flow_id: Unique id assigned by the manager.
        node_path: Node uids from source server to client's home server.
        rate_mbps: Reserved bandwidth on every link of the path.
    """

    flow_id: int
    node_path: Tuple[str, ...]
    rate_mbps: float


class FlowManager:
    """Creates and releases flows against a topology's links."""

    def __init__(self, topology: Topology):
        self._topology = topology
        self._ids = itertools.count(1)
        self._active: Dict[int, Flow] = {}
        self._path_links: Dict[Tuple[str, ...], Tuple[Link, ...]] = {}

    @property
    def active_count(self) -> int:
        """Number of currently reserved flows."""
        return len(self._active)

    def links_of(self, node_path: Sequence[str]) -> Tuple[Link, ...]:
        """Memoized path → link-tuple resolution (TopologyError on bad paths;
        only successful resolutions are cached, and they stay valid because
        links are never removed, so a caller may hold the tuple — a transfer
        resolves its path once and reads the links every step).  A tuple
        path — what routing decisions and :class:`Flow` carry — is the memo
        key as it is (``tuple()`` of a tuple is that tuple); any other
        sequence is copied into one."""
        key = tuple(node_path)
        links = self._path_links.get(key)
        if links is None:
            if len(self._path_links) >= PATH_MEMO_CAPACITY:
                self._path_links.clear()
            links = tuple(self._topology.path_links(key))
            self._path_links[key] = links
        return links

    def reserve(self, node_path: Sequence[str], rate_mbps: float) -> Flow:
        """Atomically reserve ``rate_mbps`` along ``node_path``.

        A single-node path (source == destination, the paper's "adjacent
        server has the video" shortcut) reserves nothing but still yields a
        trackable flow.

        Raises:
            FlowError: If the path is empty, crosses a link twice, or the
                rate is not positive.
            LinkCapacityError: If any link lacks spare capacity; in that
                case no link is modified.
        """
        if not node_path:
            raise FlowError("flow path must contain at least one node")
        if not (rate_mbps > 0.0):
            raise FlowError(f"flow rate must be positive, got {rate_mbps!r}")
        links = self.links_of(node_path)
        if len(set(links)) != len(links):
            # Routing paths are simple: a repeated link is a caller's bug.
            raise FlowError(f"flow path {tuple(node_path)!r} crosses a link twice")
        # Check every link with Link.reserve's own acceptance test, then
        # commit; the commit cannot fail because the links are distinct,
        # so no rollback is needed.
        for link in links:
            if rate_mbps > link.free_mbps + 1e-9:
                link.reserve(rate_mbps)  # raises the canonical error
        for link in links:
            link.reserve(rate_mbps)
        flow = Flow(flow_id=next(self._ids), node_path=tuple(node_path), rate_mbps=rate_mbps)
        self._active[flow.flow_id] = flow
        return flow

    def release(self, flow: Flow) -> None:
        """Release every link reservation held by ``flow``.

        Raises:
            FlowError: If the flow is unknown or already released.
        """
        if flow.flow_id not in self._active:
            raise FlowError(f"flow {flow.flow_id} is not active (double release?)")
        for link in self.links_of(flow.node_path):
            link.release(flow.rate_mbps)
        del self._active[flow.flow_id]

    def path_fits(self, node_path: Sequence[str], rate_mbps: float) -> bool:
        """True if every link on the path has ``rate_mbps`` spare."""
        links = self.links_of(node_path)
        return all(link.free_mbps + 1e-9 >= rate_mbps for link in links)

    def bottleneck_mbps(self, node_path: Sequence[str]) -> float:
        """Smallest spare capacity along the path (inf for a 1-node path).

        ``rate > bottleneck_mbps(path) + 1e-9`` is exactly the condition
        under which :meth:`reserve` refuses ``rate``.
        """
        bottleneck = float("inf")
        for link in self.links_of(node_path):
            free = link.free_mbps
            if free < bottleneck:
                bottleneck = free
        return bottleneck
