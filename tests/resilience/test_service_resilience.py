"""Service-level resilience wiring: breakers in routing, availability."""

from repro.client.requests import RequestStatus
from repro.core.service import ServiceConfig, VoDService
from repro.experiments.resilience import run_resilience_experiment
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
)
from repro.sim.engine import Simulator
from tests.resilience.breaker_log import state_of
from repro.storage.video import VideoTitle


def make_service(**config_overrides):
    defaults = dict(
        cluster_mb=50.0,
        snmp_period_s=60.0,
        use_reported_stats=False,
    )
    defaults.update(config_overrides)
    sim = Simulator(start_time=8 * 3600.0)
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    return VoDService(sim, topology, ServiceConfig(**defaults))


def news():
    return VideoTitle("news", size_mb=200.0, duration_s=1200.0)


def flap(resource, times):
    for _ in range(times):
        resource.online = False
        resource.online = True


class TestServerBreakerRouting:
    def test_tripped_server_leaves_the_holder_set(self):
        service = make_service(breaker_threshold=2)
        service.seed_title("U4", news())
        service.seed_title("U5", news())
        service.start()
        first = service.decide("U2", "news").chosen_uid
        other = "U5" if first == "U4" else "U4"

        flap(service.servers[first], 2)
        assert state_of(service.breakers, first) == BREAKER_OPEN
        # Both replicas are online again, but the flapping one is held
        # out of the candidate list until its breaker is probed.
        assert service.decide("U2", "news").chosen_uid == other

    def test_successful_probe_session_closes_the_breaker(self):
        service = make_service(breaker_threshold=2)
        service.seed_title("U4", news())
        service.seed_title("U5", news())
        service.start()
        first = service.decide("U2", "news").chosen_uid
        sim = service.sim

        flap(service.servers[first], 2)
        assert state_of(service.breakers, first) == BREAKER_OPEN
        sim.run(until=sim.now + 301.0)
        assert state_of(service.breakers, first) == BREAKER_HALF_OPEN

        # The half-open server is admitted again; the first cluster it
        # delivers counts as the successful probe and closes the breaker.
        request, _, _ = service.request_by_home("U2", "news")
        sim.run(until=sim.now + 2 * 3600.0)
        assert request.status is RequestStatus.COMPLETED
        assert state_of(service.breakers, first) == BREAKER_CLOSED

    def test_all_holders_tripped_falls_back_to_unfiltered(self):
        service = make_service(breaker_threshold=2)
        service.seed_title("U4", news())
        service.start()
        flap(service.servers["U4"], 2)
        assert state_of(service.breakers, "U4") == BREAKER_OPEN
        # The only holder is tripped: the breaker must not manufacture a
        # routing failure the breaker-less service would not have had.
        assert service.decide("U2", "news").chosen_uid == "U4"


class TestLinkBreakerRouting:
    def test_open_link_breaker_inflates_its_weight(self):
        service = make_service(breaker_threshold=2, use_reported_stats=True)
        service.seed_title("U4", news())
        service.start()
        sim = service.sim
        sim.run(until=sim.now + 3 * 60.0 + 1.0)  # a few SNMP rounds

        link = service.topology.link_named("Patra-Ioannina")
        before = service.decide("U2", "news")
        failed_pair = set(link.endpoints)
        hops = list(zip(before.path.nodes, before.path.nodes[1:]))
        assert any(set(hop) == failed_pair for hop in hops)

        flap(link, 2)
        assert service.breakers.link_open(link.name) is True
        # The link is physically online again, but its breaker inflates
        # the reported weight to worst-case: the route detours.
        during = service.decide("U2", "news")
        hops = list(zip(during.path.nodes, during.path.nodes[1:]))
        assert all(set(hop) != failed_pair for hop in hops)
        assert during.path.nodes != before.path.nodes


class TestAvailabilityUnderStorm:
    #: The CI chaos-smoke storm: aggressive enough that the legacy
    #: retry-less service loses sessions, short enough for a test.
    STORM = dict(
        seed=11,
        duration_s=2 * 3600.0,
        requests_per_node=12,
        server_crash_rate_per_h=6.0,
        link_flap_rate_per_h=4.0,
        mean_fault_duration_s=600.0,
    )

    def test_failover_strictly_improves_availability(self):
        off = run_resilience_experiment(
            config=ServiceConfig(retry_attempts=0), **self.STORM
        )
        on = run_resilience_experiment(
            config=ServiceConfig(retry_attempts=0, session_failover=True), **self.STORM
        )
        assert off.report.failed_count > 0  # the storm actually bites
        assert on.report.availability > off.report.availability
        assert on.report.failed_count < off.report.failed_count
        assert on.report.failover_count > 0
        assert on.report.preemptions > 0

    def test_report_carries_breaker_and_staleness_sections(self):
        run = run_resilience_experiment(
            config=ServiceConfig(
                retry_attempts=0,
                session_failover=True,
                breaker_threshold=2,
                max_stats_age_s=300.0,
            ),
            **self.STORM,
        )
        report = run.report.as_dict()
        assert "breaker_trips" in report and "breaker_resets" in report
        assert report["stale_transitions"] >= 0
        assert report["availability"] >= 0.0
