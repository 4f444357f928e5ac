"""Server-selection baselines.

Each class exposes the same ``decide(home_uid, title_id, holders, poll)``
surface as :class:`repro.core.vra.VirtualRoutingAlgorithm` and returns a
:class:`~repro.core.vra.VraDecision`, so a
:class:`~repro.core.service.VoDService` can be switched to a baseline by
assigning ``service.vra = MinHopSelection(service.topology)``.

All baselines keep the paper's home-server shortcut (serving locally when
possible is uncontroversial); what they change is how a *remote* source is
picked:

* :class:`RandomSelection` — uniform choice among available holders;
* :class:`MinHopSelection` — fewest hops, utilisation-blind;
* :class:`StaticNearestSelection` — min-hop on a table computed once at
  construction (never adapts, even to topology-state changes);
* :class:`HomeOnlySelection` — a centralised service: everything missing
  locally comes from one origin server.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from repro.core.vra import PollFn, VraDecision
from repro.errors import RoutingError, TitleUnavailableError
from repro.network.routing.dijkstra import dijkstra
from repro.network.routing.paths import Path
from repro.network.topology import Topology


class _BaselineSelection:
    """Shared candidate filtering + local-shortcut behaviour."""

    def __init__(self, topology: Topology):
        self._topology = topology
        self.decision_count = 0

    def decide(
        self,
        home_uid: str,
        title_id: str,
        holders: Sequence[str],
        poll: Optional[PollFn] = None,
    ) -> VraDecision:
        """Pick a source server; same contract as the VRA's ``decide``."""
        self.decision_count += 1
        if not holders:
            raise TitleUnavailableError(f"no server has title {title_id!r}")
        poll_fn = poll if poll is not None else (lambda _uid: True)
        if home_uid in holders and poll_fn(home_uid):
            return VraDecision(
                title_id=title_id,
                home_uid=home_uid,
                chosen_uid=home_uid,
                served_locally=True,
                path=Path(nodes=(home_uid,), cost=0.0),
            )
        available = [uid for uid in holders if uid != home_uid and poll_fn(uid)]
        if not available:
            raise RoutingError(
                f"title {title_id!r}: no available holder among {list(holders)}"
            )
        return self._pick(home_uid, title_id, available)

    # subclasses implement
    def _pick(
        self, home_uid: str, title_id: str, available: Sequence[str]
    ) -> VraDecision:
        raise NotImplementedError

    def _hop_paths(self, home_uid: str) -> Dict[str, Path]:
        """Min-hop path to every reachable node (unit link weights)."""
        result = dijkstra(self._topology, home_uid, weight=lambda _link: 1.0)
        return {
            uid: result.path(uid)
            for uid in result.distances
            if uid != home_uid
        }

    def _decision(
        self, home_uid: str, title_id: str, chosen: str, paths: Dict[str, Path]
    ) -> VraDecision:
        if chosen not in paths:
            raise RoutingError(
                f"server {chosen!r} unreachable from {home_uid!r}"
            )
        return VraDecision(
            title_id=title_id,
            home_uid=home_uid,
            chosen_uid=chosen,
            served_locally=False,
            path=paths[chosen],
            audit_of=lambda _weights: (dict(paths), None),
        )


class RandomSelection(_BaselineSelection):
    """Uniform-random choice among available holders; min-hop transfer path."""

    def __init__(self, topology: Topology, rng: Optional[random.Random] = None):
        super().__init__(topology)
        self._rng = rng if rng is not None else random.Random(0)

    def _pick(self, home_uid: str, title_id: str, available: Sequence[str]) -> VraDecision:
        paths = self._hop_paths(home_uid)
        reachable = [uid for uid in available if uid in paths]
        if not reachable:
            raise RoutingError(
                f"title {title_id!r}: no reachable holder among {list(available)}"
            )
        chosen = self._rng.choice(sorted(reachable))
        return self._decision(home_uid, title_id, chosen, paths)


class MinHopSelection(_BaselineSelection):
    """Fewest-hops holder, recomputed per decision, utilisation-blind."""

    def _pick(self, home_uid: str, title_id: str, available: Sequence[str]) -> VraDecision:
        paths = self._hop_paths(home_uid)
        reachable = [uid for uid in available if uid in paths]
        if not reachable:
            raise RoutingError(
                f"title {title_id!r}: no reachable holder among {list(available)}"
            )
        chosen = min(reachable, key=lambda uid: (paths[uid].cost, uid))
        return self._decision(home_uid, title_id, chosen, paths)


class StaticNearestSelection(_BaselineSelection):
    """Min-hop on tables frozen at construction time.

    Models a deployment where routing tables were computed once during
    installation and never refreshed — the "without the need for
    reprogramming" anti-pattern the paper's dynamic adjustment avoids.
    """

    def __init__(self, topology: Topology):
        super().__init__(topology)
        self._tables: Dict[str, Dict[str, Path]] = {
            node.uid: self._hop_paths(node.uid) for node in topology.nodes()
        }

    def _pick(self, home_uid: str, title_id: str, available: Sequence[str]) -> VraDecision:
        paths = self._tables[home_uid]
        reachable = [uid for uid in available if uid in paths]
        if not reachable:
            raise RoutingError(
                f"title {title_id!r}: no reachable holder among {list(available)}"
            )
        chosen = min(reachable, key=lambda uid: (paths[uid].cost, uid))
        return self._decision(home_uid, title_id, chosen, paths)


class HomeOnlySelection(_BaselineSelection):
    """Centralised service: every remote fetch comes from one origin.

    Args:
        topology: The network.
        origin_uid: The single server that sources all remote titles.
    """

    def __init__(self, topology: Topology, origin_uid: str):
        super().__init__(topology)
        topology.node(origin_uid)  # validate
        self.origin_uid = origin_uid

    def _pick(self, home_uid: str, title_id: str, available: Sequence[str]) -> VraDecision:
        if self.origin_uid not in available:
            raise RoutingError(
                f"origin {self.origin_uid!r} cannot provide title {title_id!r}"
            )
        paths = self._hop_paths(home_uid)
        return self._decision(home_uid, title_id, self.origin_uid, paths)
