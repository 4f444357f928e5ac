"""Integration tests: the full service across several subsystems."""

import pytest

from repro.client.client import Client
from repro.client.requests import RequestStatus
from repro.core.service import ServiceConfig, VoDService
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def make_service(sim_start=8 * 3600.0, **config_overrides):
    config_defaults = dict(
        cluster_mb=50.0,
        disk_count=4,
        disk_capacity_mb=2_000.0,
        snmp_period_s=60.0,
        use_reported_stats=False,
    )
    config_defaults.update(config_overrides)
    sim = Simulator(start_time=sim_start)
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    service = VoDService(sim, topology, ServiceConfig(**config_defaults))
    return service


def movie(title_id="m1", size_mb=400.0, duration_s=3600.0):
    return VideoTitle(title_id, size_mb=size_mb, duration_s=duration_s)


class TestFullRequestCycle:
    def test_client_to_completion_through_all_layers(self):
        service = make_service()
        service.seed_title("U4", movie())
        service.attach_access_network("10.2.0", "U2")
        client = Client("alice", "10.2.0.42")
        service.register_client(client)
        service.start()

        request, session, process = service.submit(client, "m1")
        service.sim.run(until=service.sim.now + 3 * 3600.0)

        assert request.status is RequestStatus.COMPLETED
        record = session.record
        assert record.servers_used == ["U4"]
        assert record.startup_delay_s > 0.0
        # All 8 clusters crossed the U2,U3,U4 route chosen by the VRA at
        # 8am (corrected Experiment A geometry).
        assert all(c.path_nodes == ("U2", "U3", "U4") for c in record.clusters)

    def test_caching_chain_spreads_copies(self):
        service = make_service()
        service.seed_title("U4", movie())
        service.start()
        service.request_by_home("U2", "m1")
        service.sim.run(until=service.sim.now + 3 * 3600.0)
        assert service.database.servers_with_title("m1") == ["U2", "U4"]
        # A request at U3 now picks the closer copy at U2.
        _, session, _ = service.request_by_home("U3", "m1")
        service.sim.run(until=service.sim.now + 3 * 3600.0)
        assert session.record.servers_used == ["U2"]

    def test_concurrent_sessions_share_links(self):
        service = make_service()
        service.seed_title("U4", movie())
        service.seed_title("U4", movie("m2"))
        service.start()
        r1, s1, _ = service.request_by_home("U2", "m1")
        r2, s2, _ = service.request_by_home("U1", "m2")
        service.sim.run(until=service.sim.now + 4 * 3600.0)
        assert r1.status is RequestStatus.COMPLETED
        assert r2.status is RequestStatus.COMPLETED
        assert service.flows.active_count == 0  # all reservations released

    def test_popularity_counts_accumulate_per_home_server(self):
        service = make_service()
        service.seed_title("U4", movie())
        service.start()
        for _ in range(3):
            service.request_by_home("U2", "m1")
            service.sim.run(until=service.sim.now + 3 * 3600.0)
        # First request STOREs at U2 (no point, Figure 2 quirk); the next
        # two are HITs awarding points.
        assert service.servers["U2"].policy.points_of("m1") == 2
        assert service.servers["U4"].policy.points_of("m1") == 0


class TestReportedStatsPath:
    def test_vra_follows_snmp_view_not_ground_truth(self):
        service = make_service(use_reported_stats=True)
        service.seed_title("U1", movie())
        service.seed_title("U4", movie())
        service.start()
        # Before the first SNMP window closes the database says "all idle":
        # every path costs 0 and the tie breaks lexicographically to U1,
        # even though ground truth has traffic on the U5-U6-U1 route.
        decision = service.decide("U5", "m1")
        assert decision.cost == 0.0
        assert decision.chosen_uid == "U1"
        # After the SNMP modules report the 8am sample, the one-hop
        # Thessaloniki-Xanthi route (LVN ~0.168) beats the two-hop route
        # to Athens (~0.233): the informed VRA flips to U4.
        service.sim.run(until=service.sim.now + 150.0)
        decision = service.decide("U5", "m1")
        assert decision.cost > 0.0
        assert decision.chosen_uid == "U4"

    def test_stale_stats_lag_traffic_changes(self):
        service = make_service(use_reported_stats=True, snmp_period_s=300.0)
        service.start()
        service.sim.run(until=service.sim.now + 650.0)
        baseline = service.vra.weights()["Patra-Athens"]
        # Slam the link; the DB view must not change until the next poll.
        service.topology.link_named("Patra-Athens").set_background_mbps(2.0)
        service.sim.run(until=service.sim.now + 100.0)
        assert service.vra.weights()["Patra-Athens"] == pytest.approx(baseline)
        service.sim.run(until=service.sim.now + 300.0)
        assert service.vra.weights()["Patra-Athens"] > baseline


class TestDynamicSwitching:
    def test_session_switches_when_better_source_appears(self):
        # Start a long session from U4 to U2; mid-way, seed the title at
        # U1 and melt the congestion toward it: per-cluster re-decision
        # must switch sources.
        service = make_service()
        big = movie("big", size_mb=1000.0, duration_s=7200.0)
        service.seed_title("U4", big)
        service.start()
        topology = service.topology

        # Make the U2-U3-U4 route initially attractive, then poison it.
        _, session, _ = service.request_by_home("U2", "big")

        def poison_and_seed():
            topology.link_named("Patra-Ioannina").set_background_mbps(1.9)
            topology.link_named("Thessaloniki-Ioannina").set_background_mbps(1.9)
            service.servers["U1"].seed_title(big)

        service.sim.schedule(1800.0, poison_and_seed)
        service.sim.run(until=service.sim.now + 6 * 3600.0)
        record = session.record
        assert record.completed
        assert record.switch_count >= 1
        assert set(record.servers_used) == {"U4", "U1"}
