"""Staleness guard over the SNMP-fed link statistics.

The paper's VRA trusts the reported link usage in the service database.
During an ``SnmpBlackout`` — or whenever a sample is simply older than
``max_stats_age_s`` — that trust is misplaced: the stats describe a
network that may no longer exist.  Instead of routing confidently on
dead data, the :class:`StalenessGuard` conservatively *inflates* the
weight of every age-expired link by shrinking its apparent headroom::

    used' = capacity - (capacity - used) / factor

so a link with a fresh sample keeps its real weight while a stale one
looks ``factor``× more loaded than last reported — paths over stale
links are still usable (the network never partitions) but lose
tie-breaks against freshly-measured ones.  Decisions taken while any
link is stale are marked ``degraded`` by the service.

The stale set is recomputed on a periodic simulated-clock tick and after
every SNMP collection round; whenever membership changes the guard
reports the changed links so the service can
:meth:`~repro.database.store.ServiceDatabase.touch_links` them — the
routing epoch moves, the next decision rebuilds the weight table, and
no new cache-invalidation path is needed.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Set

from repro.database.store import ServiceDatabase
from repro.errors import ReproError
from repro.network.link import Link
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTask

#: Changed-membership callback: the link names entering or leaving the
#: stale set this refresh.
ChangeFn = Callable[[List[str]], None]


class StalenessGuard:
    """Tracks which links have age-expired SNMP samples.

    Args:
        sim: Simulation engine (clock + periodic tick).
        database: The service database the SNMP collector writes to.
        topology: The network whose links are guarded.
        max_age_s: A sample older than this is stale.  A link that never
            received a sample (timestamp 0.0 baseline) ages like any
            other, so a blackout from t=0 trips the guard too.
        inflation_factor: Headroom divisor for stale links (> 1).
        check_period_s: Spacing of the periodic refresh tick.
        on_change: Invoked with the sorted list of links whose staleness
            flipped — the service routes this into ``touch_links``.
    """

    def __init__(
        self,
        sim: Simulator,
        database: ServiceDatabase,
        topology: Topology,
        max_age_s: float,
        inflation_factor: float = 4.0,
        check_period_s: float = 60.0,
        on_change: Optional[ChangeFn] = None,
    ):
        if not (max_age_s > 0.0):
            raise ReproError(f"max_stats_age_s must be positive, got {max_age_s!r}")
        if not (inflation_factor > 1.0):
            raise ReproError(
                f"stale inflation factor must exceed 1.0, got {inflation_factor!r}"
            )
        if not (check_period_s > 0.0):
            raise ReproError(
                f"staleness check period must be positive, got {check_period_s!r}"
            )
        self._sim = sim
        self._database = database
        self._topology = topology
        self.max_age_s = max_age_s
        self.inflation_factor = inflation_factor
        self._stale: Set[str] = set()
        self.on_change = on_change
        #: Number of refreshes that changed the stale set (for reports).
        self.transition_count = 0
        self._task = PeriodicTask(sim, check_period_s, self._tick, name="staleness-guard")

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

    @property
    def stale_links(self) -> FrozenSet[str]:
        """The current stale set (a snapshot-safe frozen copy)."""
        return frozenset(self._stale)

    def is_stale(self, link_name: str) -> bool:
        """Is this link's latest sample older than ``max_stats_age_s``?"""
        return link_name in self._stale

    def adjusted_used(self, link: Link, used_mbps: float) -> float:
        """The conservative used-bandwidth figure for weight computation.

        Fresh links pass through untouched; stale links keep only
        ``1/factor`` of their last-reported headroom.  The input is
        clamped to capacity first so an over-reported link cannot come
        out *less* loaded than reported.
        """
        if link.name not in self._stale:
            return used_mbps
        capacity = link.capacity_mbps
        headroom = capacity - min(used_mbps, capacity)
        return capacity - headroom / self.inflation_factor

    # ------------------------------------------------------------------ #
    def refresh(self) -> List[str]:
        """Recompute the stale set; returns the links whose state flipped.

        Also invokes ``on_change`` (inside the refresh, before returning)
        when membership moved, so epoch counters bump in the same event
        that observed the flip.
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
            if self.on_change is not None:
                self.on_change(changed)
        return changed

    def _tick(self) -> None:
        self.refresh()
