"""Test-only oracle: the collection round as it was before one reporter
per link — every module samples *every* adjacent link and writes each
sample with the single-entry ``update_link_stats``, module by module, so
each link is computed and written from both endpoints (last write wins)
and the epoch counter bumps once per write.

Nothing in ``src/`` runs this any more; the differential tests hold the
one-reporter round (``StatisticsService._collect_all``) to it.
"""

from repro.network.feed import SNMP_ROUND
from repro.snmp.collector import StatisticsService


class BothEndsStatisticsService(StatisticsService):
    """A :class:`StatisticsService` whose rounds write from both ends."""

    def _collect_all(self) -> None:
        if self.blacked_out:
            self.blackout_skips += 1
            return
        now = self._sim.now
        for module in self.modules:
            for link_name, stats in module.sample(now).items():
                self._db.update_link_stats(link_name, stats)
        self._topology.feed.publish(SNMP_ROUND)


def link_stats(database):
    """Every link's latest sample (None before its first), by link name."""
    return {entry.link_name: entry.latest_stats for entry in database.link_entries()}


def use_both_ends_oracle(service) -> BothEndsStatisticsService:
    """Swap a not-yet-started ``VoDService``'s collector for the oracle,
    keeping its period; its rounds publish ``SNMP_ROUND`` on the same feed
    (the staleness guard refreshes on it)."""
    oracle = BothEndsStatisticsService(
        service.sim,
        service.topology,
        service.database.limited_access(),
        period_s=service.statistics.period_s,
    )
    service.statistics = oracle
    return oracle
