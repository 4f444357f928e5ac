"""Staleness guard over the SNMP-fed link statistics.

The paper's VRA trusts the reported link usage in the service database.
During an ``SnmpBlackout`` — or whenever a sample is simply older than
``max_stats_age_s`` — that trust is misplaced: the stats describe a
network that may no longer exist.  Instead of routing confidently on
dead data, the :class:`StalenessGuard` conservatively *inflates* the
weight of every age-expired link by shrinking its apparent headroom::

    used' = capacity - (capacity - used) / factor

with ``factor`` = :data:`STALE_INFLATION_FACTOR`, so a link with a fresh
sample keeps its real weight while a stale one looks ``factor``× more
loaded than last reported — paths over stale links are still usable
(the network never partitions) but lose tie-breaks against
freshly-measured ones.  Decisions taken while any
link is stale are marked ``degraded`` by the service.

The stale set is recomputed on a periodic simulated-clock tick and after
every SNMP collection round (the guard subscribes to the change feed's
``SNMP_ROUND``); whenever membership changes the guard
:meth:`~repro.database.store.ServiceDatabase.touch_links` the changed
links — the routing epoch moves, the next decision rebuilds the weight
table, and no new cache-invalidation path is needed.
"""

from __future__ import annotations

from typing import List, Set

from repro.database.store import ServiceDatabase
from repro.errors import ReproError
from repro.network.feed import SNMP_ROUND
from repro.network.link import Link
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTask

#: Headroom divisor for stale links: a stale link keeps a quarter of its
#: last-reported headroom.
STALE_INFLATION_FACTOR = 4.0


class StalenessGuard:
    """Tracks which links have age-expired SNMP samples.

    Args:
        sim: Simulation engine (clock + periodic tick).
        database: The service database the SNMP collector writes to.
        topology: The network whose links are guarded.
        max_age_s: A sample older than this is stale.  A link that never
            received a sample (timestamp 0.0 baseline) ages like any
            other, so a blackout from t=0 trips the guard too.
        check_period_s: Spacing of the periodic refresh tick.

    The guard also refreshes on every ``SNMP_ROUND`` its topology's feed
    publishes, so fresh samples clear degraded routing in the round that
    wrote them.
    """

    def __init__(
        self,
        sim: Simulator,
        database: ServiceDatabase,
        topology: Topology,
        max_age_s: float,
        check_period_s: float = 60.0,
    ):
        if not (max_age_s > 0.0):
            raise ReproError(f"max_stats_age_s must be positive, got {max_age_s!r}")
        if not (check_period_s > 0.0):
            raise ReproError(
                f"staleness check period must be positive, got {check_period_s!r}"
            )
        self._sim = sim
        self._database = database
        self._topology = topology
        self.max_age_s = max_age_s
        self._stale: Set[str] = set()
        #: Number of refreshes that changed the stale set (for reports).
        self.transition_count = 0
        self._task = PeriodicTask(sim, check_period_s, self._tick, name="staleness-guard")
        topology.feed.subscribe(SNMP_ROUND, self._tick)

    # ------------------------------------------------------------------ #
    def start(self) -> "StalenessGuard":
        """Arm the periodic refresh (first tick one period from now)."""
        self._task.start()
        return self

    @property
    def degraded(self) -> bool:
        """True while any guarded link is stale."""
        return bool(self._stale)

    @property
    def stale_count(self) -> int:
        """Number of currently stale links (feeds ``snmp.stale_links``)."""
        return len(self._stale)

    def adjusted_used(self, link: Link, used_mbps: float) -> float:
        """The conservative used-bandwidth figure for weight computation.

        Fresh links pass through untouched; stale links keep only
        ``1/STALE_INFLATION_FACTOR`` of their last-reported headroom.  The input is
        clamped to capacity first so an over-reported link cannot come
        out *less* loaded than reported.
        """
        if link.name not in self._stale:
            return used_mbps
        capacity = link.capacity_mbps
        headroom = capacity - min(used_mbps, capacity)
        return capacity - headroom / STALE_INFLATION_FACTOR

    # ------------------------------------------------------------------ #
    def refresh(self) -> List[str]:
        """Recompute the stale set; returns the links whose state flipped.

        When membership moved it also touches the flipped links in the
        database (inside the refresh, before returning), so the routing
        epoch moves in the same event that observed the flip.
        """
        now = self._sim.now
        floor = now - self.max_age_s
        stale_now: Set[str] = set()
        for link in self._topology.links():
            stats = self._database.link_entry(link.name).latest_stats
            sampled_at = stats.timestamp if stats is not None else 0.0
            if sampled_at < floor:
                stale_now.add(link.name)
        changed = sorted(stale_now.symmetric_difference(self._stale))
        if changed:
            self._stale = stale_now
            self.transition_count += 1
            self._database.touch_links(changed)
        return changed

    def _tick(self, _round: object = None) -> None:
        """The periodic check, and the ``SNMP_ROUND`` subscriber."""
        self.refresh()
