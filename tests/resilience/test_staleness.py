"""Staleness guard: stale-set computation, inflation, service wiring."""

import pytest

from repro.core.service import ServiceConfig, VoDService
from repro.errors import ReproError, ServiceError
from repro.network.feed import LINK_STATS
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.resilience.staleness import StalenessGuard
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def make_service(**config_overrides):
    defaults = dict(
        cluster_mb=50.0,
        snmp_period_s=60.0,
        use_reported_stats=True,
    )
    defaults.update(config_overrides)
    sim = Simulator()
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    return VoDService(sim, topology, ServiceConfig(**defaults))


def news():
    return VideoTitle("news", size_mb=200.0, duration_s=1200.0)


def advance(sim, until):
    """Run the sim to an absolute time even with an empty event queue."""
    sim.schedule_at(until, lambda: None)
    sim.run(until=until + 1e-9)


class TestStalenessGuardUnit:
    def test_parameter_validation(self):
        service = make_service()
        for kwargs in (
            dict(max_age_s=0.0),
            dict(max_age_s=100.0, check_period_s=0.0),
        ):
            with pytest.raises(ReproError):
                StalenessGuard(
                    service.sim, service.database, service.topology, **kwargs
                )

    def test_requires_reported_stats(self):
        with pytest.raises(ServiceError):
            make_service(use_reported_stats=False, max_stats_age_s=120.0)

    def test_never_sampled_links_age_from_zero(self):
        service = make_service()
        guard = StalenessGuard(
            service.sim, service.database, service.topology, max_age_s=100.0
        )
        # At t=0 nothing is stale yet: the 0.0 baseline is inside the age.
        assert guard.refresh() == []
        assert guard.degraded is False
        # Without a single SNMP round, every link expires together.
        advance(service.sim, 200.0)
        changed = guard.refresh()
        assert changed == sorted(link.name for link in service.topology.links())
        assert guard.degraded is True
        assert guard.stale_count == service.topology.link_count
        assert guard.transition_count == 1
        # A refresh with no membership change reports (and counts) nothing.
        assert guard.refresh() == []
        assert guard.transition_count == 1

    def test_adjusted_used_inflates_only_stale_links(self):
        service = make_service()
        guard = StalenessGuard(
            service.sim,
            service.database,
            service.topology,
            max_age_s=100.0,
        )
        link = next(iter(service.topology.links()))
        assert guard.adjusted_used(link, 1.0) == 1.0  # fresh: passthrough
        advance(service.sim, 200.0)
        guard.refresh()
        capacity = link.capacity_mbps
        expected = capacity - (capacity - 1.0) / 4.0
        assert guard.adjusted_used(link, 1.0) == pytest.approx(expected)
        # Over-reported usage clamps at capacity, never below it.
        assert guard.adjusted_used(link, capacity + 5.0) == capacity

    def test_on_change_receives_sorted_flips(self):
        """A stale-set flip touches the flipped links in the database:
        one ``LINK_STATS`` publish keyed by their sorted names."""
        service = make_service()
        guard = StalenessGuard(
            service.sim,
            service.database,
            service.topology,
            max_age_s=100.0,
        )
        seen = []
        service.database.feed.subscribe(LINK_STATS, seen.append)
        advance(service.sim, 200.0)
        guard.refresh()
        assert len(seen) == 1
        assert seen[0] == sorted(seen[0])
        assert len(seen[0]) == guard.stale_count


    def test_a_written_round_refreshes_it_in_the_same_event(self):
        """The guard hears every written SNMP round on the change feed: with
        no periodic tick of its own running, fresh samples still clear it."""
        service = make_service()
        guard = StalenessGuard(
            service.sim, service.database, service.topology, max_age_s=100.0
        )
        advance(service.sim, 200.0)
        guard.refresh()
        assert guard.degraded is True
        service.statistics.start()  # the baseline poll writes no sample yet
        advance(service.sim, 261.0)  # the first round that writes
        assert guard.degraded is False


class TestServiceWiring:
    def test_blackout_marks_decisions_degraded_then_recovers(self):
        service = make_service(max_stats_age_s=150.0, snmp_period_s=60.0)
        service.seed_title("U4", news())
        service.start()
        sim = service.sim
        advance(sim, 300.0)
        assert service.staleness_guard is not None
        assert service.staleness_guard.degraded is False
        assert service.decide("U2", "news").degraded is False

        service.statistics.blackout()
        advance(sim, 600.0)
        assert service.staleness_guard.degraded is True
        degraded = service.decide("U2", "news")
        assert degraded.degraded is True

        service.statistics.restore()
        advance(sim, sim.now + 2 * 60.0 + 1.0)
        assert service.staleness_guard.degraded is False
        assert service.decide("U2", "news").degraded is False

    def test_guard_absent_by_default(self):
        service = make_service()
        assert service.staleness_guard is None
        assert service.supervisor is None
