"""The decision pipeline: what ``service.decide`` runs (DESIGN.md §5b.14).

One decision is Figure 5 for a request at a home server, for a whole
title or one cluster of it: the holders, their poll
(:meth:`~repro.core.vra.VirtualRoutingAlgorithm.poll`), the route to the
cheapest one that answered (:meth:`~repro.core.vra.VirtualRoutingAlgorithm.route`)
and the staleness guard's stamp.  With the memo on, the VRA's
:class:`~repro.network.routing.cache.RoutingCache` keeps each step until
a publish of one of its inputs flushes it, and a repeated decision is
one probe of a C ``functools.lru_cache``.  With it off, or while another
policy is assigned over ``service.vra``, every call runs cold.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

from repro.core.vra import PollFn, VraDecision
from repro.database.store import ServiceDatabase
from repro.network.feed import AVAILABILITY, LINK_STATS, LOCATIONS, STATE, TRAFFIC, ChangeFeed
from repro.obs.registry import MetricsRegistry
from repro.resilience.staleness import StalenessGuard
from repro.server.video_server import VideoServer

#: The cluster of ``decide(home, title)``.  No caller passes it, so it
#: is in no replay key.
_TITLE = object()


class DecisionPipeline:
    """Holders → poll → route → staleness stamp, behind the epoch memo.

    Built right after the built-in ``vra``, so the memo's flushes are the
    first subscribers of their kinds on ``feed``: a later subscriber that
    decides inside a publish sees the memo flushed.  ``config`` is the
    service's (cluster size, live stats kind, node-load extension).
    """

    def __init__(
        self, vra, database: ServiceDatabase, servers: Dict[str, VideoServer], config,
        staleness_guard: Optional[StalenessGuard], feed: ChangeFeed, registry: MetricsRegistry,
    ):
        self._builtin = vra
        self._database = database
        self._servers = servers
        self._cluster_mb = config.cluster_mb
        self._guard = staleness_guard
        self._obs_enabled = registry.enabled
        memo = vra.cache
        if memo is not None:
            memo.replays = functools.lru_cache(maxsize=None)(self._cold)
            # A routing input drops the table, trees, routes and replays;
            # an availability input the poll answers and the replays.
            live = LINK_STATS if config.use_reported_stats else TRAFFIC
            feed.subscribe(live, memo.flush)
            feed.subscribe(STATE, memo.flush)
            feed.subscribe(AVAILABILITY, memo.flush_decisions)
            if config.use_server_load_in_vra:  # stream slots feed the weights
                feed.subscribe(AVAILABILITY, memo.flush)
            feed.subscribe(LOCATIONS, memo.flush_decisions)
        self._m_hits = registry.counter(
            "decision.hits", subsystem="core",
            description="decide() calls answered whole from the epoch memo",
        )
        self._m_misses = registry.counter(
            "decision.misses", subsystem="core",
            description="epoch-memo decision lookups that ran the VRA",
        )
        self.use(vra)

    def use(self, policy) -> None:
        """Install ``policy`` and bind :attr:`decide` for it.  The memo's
        flushes follow the built-in VRA's inputs only, so another policy
        runs cold; the built-in one back re-attaches its memo, which the
        feed kept flushing."""
        self.vra = policy
        memo = self.memo = policy.cache if policy is self._builtin else None
        if memo is None:
            self.decide = self._cold
        else:
            self.decide = self._counted if self._obs_enabled else memo.replays

    def _counted(self, *key):
        """The memo with instruments: a call during which no miss ran is a
        replay, counted as if the VRA had run."""
        memo = self.memo
        misses = memo.decision_misses
        decision = memo.replays(*key)
        if memo.decision_misses == misses:
            self._m_hits.inc()
            self.vra.count_replayed(decision)
        return decision

    def _cold(self, home_uid: str, title_id: str, cluster=_TITLE) -> VraDecision:
        """One decision with no replay: what ``replays`` memoizes.  The
        whole-title decision — ``cluster=None``, or a cluster no partial
        copy covers — hands on to the ``(home, title)`` key, so all of
        them share its one VRA run."""
        memo = self.memo
        holders = polled = None
        if cluster is not _TITLE and cluster is not None:
            holders, polled = self.holders_of(title_id, cluster)
        if memo is None:
            decision = self.vra.decide(
                home_uid, title_id,
                holders or self._database.full_holders(title_id),
                self._poll(title_id, polled),
            )
        else:
            if polled is None and cluster is not _TITLE:
                return memo.replays(home_uid, title_id)
            memo.decision_misses += 1
            self._m_misses.inc()
            answers = memo.polls.get((title_id, polled))
            if answers is None:
                holders = holders or self._database.full_holders(title_id)
                poll = self._poll(title_id, polled)
                if home_uid in holders and poll(home_uid):  # Figure 5 quits here
                    answers = (home_uid,), ()
                else:
                    answers = memo.polls[title_id, polled] = self.vra.poll(holders, poll)
            decision = self.vra.route(home_uid, title_id, *answers)
        guard = self._guard
        if guard is not None and guard.degraded and not decision.degraded:
            # Stamped outside the VRA; the memo stores the marked one
            # (safe: every stale-set flip publishes link stats).
            decision = decision.marked_degraded()
        return decision

    def _poll(self, title_id: str, cluster: Optional[int]) -> PollFn:
        """The availability poll for one miss (built only there)."""
        servers = self._servers
        return lambda uid: servers[uid].can_provide(title_id, cluster)

    def holders_of(
        self, title_id: str, cluster: int
    ) -> Tuple[Tuple[str, ...], Optional[int]]:
        """The servers that can serve cluster ``cluster`` of a title, and
        what their poll is asked: every full holder plus each partial
        holder covering the cluster, asked about that cluster — or, when
        no partial copy covers it, the full holders, asked about the
        whole title (None).  The decide and the failover stall both
        use it."""
        holders = self._database.cluster_holders(
            title_id, (cluster + 1) * self._cluster_mb
        )
        if holders is None:
            return self._database.full_holders(title_id), None
        return holders, cluster
