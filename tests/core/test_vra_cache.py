"""Invalidation edges of the VRA's epoch memo, exercised through the
service facade (the paper-faithful data flow)."""

import pytest

from repro.core.service import ServiceConfig, VoDService
from repro.core.vra import VirtualRoutingAlgorithm
from repro.database.records import LinkStats
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle

MOVIE = VideoTitle("movie", size_mb=600.0, duration_s=3_600.0)


def build_service(**config_kwargs) -> VoDService:
    sim = Simulator()
    service = VoDService(
        sim, build_grnet_topology(), ServiceConfig(**config_kwargs)
    )
    service.seed_title("U4", MOVIE)
    service.seed_title("U5", MOVIE)
    service.start()
    return service


def churn_a_stream_slot(service: VoDService, uid: str = "U6") -> None:
    """Admit and release one stream at a non-holder: two availability
    bumps, nothing any weight or poll answer reads."""
    admission = service.servers[uid].admission
    admission.release(admission.admit())


def report_traffic(service: VoDService, label: str = "8am") -> None:
    """Put the paper's Table 2 sample into the limited-access database,
    the way a completed SNMP round would."""
    apply_traffic_sample(service.topology, label)
    admin = service.database.limited_access()
    for link in service.topology.links():
        admin.update_link_stats(
            link.name,
            LinkStats(
                used_mbps=link.used_mbps,
                utilization=link.utilization,
                timestamp=service.sim.now,
            ),
        )


class TestCacheWiring:
    def test_cache_on_by_default(self):
        service = build_service()
        assert service.vra.cache is not None
        # A stream slot is availability only: it keeps the table.
        service.decide("U2", "movie")
        churn_a_stream_slot(service)
        service.decide("U2", "movie")
        stats = service.vra.cache_stats
        assert (stats.invalidations, stats.weight_hits) == (0, 1)

    def test_reference_mode_bypasses_cache(self):
        service = build_service(compiled_routing=False)
        assert service.vra.cache is None
        assert service.vra.cache_stats is None
        assert service.vra.decision_cache_stats is None
        decision = service.decide("U2", "movie")
        assert decision.chosen_uid in {"U4", "U5"}
        assert decision.dijkstra_result.steps == []  # a decision never carries a step table

    def test_server_load_extension_runs_memoized(self):
        service = build_service(use_server_load_in_vra=True)
        assert service.vra.cache is not None
        # Stream slots feed the weights: availability is routing here.
        service.decide("U2", "movie")
        churn_a_stream_slot(service)
        service.decide("U2", "movie")
        stats = service.vra.cache_stats
        assert (stats.invalidations, stats.weight_hits) == (1, 0)

    def test_standalone_vra_defaults_uncached(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        assert vra.cache is None
        vra.decide("U2", "movie", holders=["U4"])


class TestCacheHitsAndEquivalence:
    def test_repeat_decision_hits_and_matches(self):
        service = build_service()
        first = service.decide("U2", "movie")
        churn_a_stream_slot(service)  # drops the decision, not the table
        second = service.decide("U2", "movie")
        assert second is not first
        stats = service.vra.cache_stats
        assert stats.tree_hits >= 1
        assert stats.weight_hits >= 1
        assert second.chosen_uid == first.chosen_uid
        assert second.path.nodes == first.path.nodes
        assert second.cost == first.cost

    def test_cached_decisions_match_uncached_service(self):
        cached = build_service()
        uncached = build_service(compiled_routing=False)
        homes = ["U1", "U2", "U3", "U6"]
        for _ in range(3):
            for home in homes:
                a = cached.decide(home, "movie")
                b = uncached.decide(home, "movie")
                assert (a.chosen_uid, a.path.nodes, a.cost) == (
                    b.chosen_uid,
                    b.path.nodes,
                    b.cost,
                )
        assert cached.vra.cache_stats.hits > 0


class TestInvalidationEdges:
    def test_snmp_write_invalidates_before_next_decision(self):
        service = build_service()
        service.decide("U2", "movie")  # warm
        warm_misses = service.vra.cache_stats.tree_misses
        # An SNMP sample lands mid-session: the U2-U3 route becomes
        # reportedly saturated, so the next cluster decision must see it.
        admin = service.database.limited_access()
        admin.update_link_stats(
            "Patra-Ioannina",
            LinkStats(used_mbps=2.0, utilization=1.0, timestamp=service.sim.now),
        )
        decision = service.decide("U2", "movie")
        stats = service.vra.cache_stats
        assert stats.invalidations >= 1
        assert stats.tree_misses == warm_misses + 1
        # The recomputed weights reflect the new sample, not the cached 0s.
        assert decision.weights["Patra-Ioannina"] > 0.0

    def test_every_snmp_round_flushes_and_every_table_build_is_a_counted_miss(self):
        service = build_service()
        stats = service.vra.cache_stats
        homes = ("U1", "U2", "U6")
        # The repeated sample is the drumbeat: an epoch in which no value moved.
        rounds = ("8am", "10am", "10am", "6pm")
        for done, label in enumerate(rounds):
            report_traffic(service, label)
            misses, hits = stats.tree_misses, stats.tree_hits
            for home in homes:
                service.decide(home, "movie")
            churn_a_stream_slot(service)
            for home in homes:
                service.decide(home, "movie")
            # Nothing cached before the flush answered: one search per
            # home, then — past an availability-only bump — one hit per home.
            assert stats.tree_misses == misses + len(homes)
            assert stats.tree_hits == hits + len(homes)
            assert stats.invalidations == done
            assert stats.weight_misses == stats.invalidations + 1

    def test_link_failure_bumps_epoch_between_snmp_rounds(self):
        service = build_service()
        report_traffic(service, "8am")
        before = service.decide("U2", "movie")
        # Experiment A: at 8am traffic U2 reaches U4 via Ioannina.
        assert before.path.nodes == ("U2", "U3", "U4")
        epoch_before = service.routing_epoch()
        # No simulated time passes — this failure lands between SNMP rounds.
        service.topology.link_named("Patra-Ioannina").online = False
        assert service.routing_epoch() != epoch_before
        after = service.decide("U2", "movie")
        hops = list(zip(after.path.nodes, after.path.nodes[1:]))
        assert ("U2", "U3") not in hops and ("U3", "U2") not in hops
        assert service.vra.cache_stats.invalidations >= 1

    def test_runtime_expansion_invalidates(self):
        from repro.network.link import Link
        from repro.network.node import Node

        service = build_service()
        service.decide("U2", "movie")
        epoch_before = service.routing_epoch()
        service.add_server(
            Node("U7", name="Larissa"),
            [Link("U7", "U1", capacity_mbps=10.0), Link("U7", "U4", capacity_mbps=10.0)],
        )
        assert service.routing_epoch() != epoch_before

    def test_ground_truth_mode_tracks_reservations(self):
        service = build_service(use_reported_stats=False)
        epoch_before = service.routing_epoch()
        service.flows.reserve(["U2", "U1"], 1.0)
        assert service.routing_epoch() != epoch_before


class TestHoldersNormalization:
    def test_accepts_generator(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        decision = vra.decide(
            "U2", "movie", holders=(uid for uid in ["U4", "U5"])
        )
        assert decision.chosen_uid == "U4"

    def test_accepts_set(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        decision = vra.decide("U2", "movie", holders={"U4"})
        assert decision.chosen_uid == "U4"

    def test_duplicates_polled_once(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        polled = []

        def poll(uid):
            polled.append(uid)
            return True

        decision = vra.decide(
            "U2", "movie", holders=["U4", "U5", "U4", "U5"], poll=poll
        )
        assert polled == ["U4", "U5"]
        assert decision.chosen_uid == "U4"

    def test_polled_out_order_preserved(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        decision = vra.decide(
            "U2",
            "movie",
            holders=["U5", "U4", "U6"],
            poll=lambda uid: uid == "U4",
        )
        assert decision.polled_out == ("U5", "U6")


class TestCacheStats:
    def test_vra_reports_cache_counters(self):
        service = build_service()
        service.decide("U2", "movie")
        service.decide("U2", "movie")
        churn_a_stream_slot(service)
        service.decide("U2", "movie")
        vra = service.vra
        assert vra.decision_count == 3
        assert vra.cache_stats.tree_hits == 1
        stats = vra.decision_cache_stats
        assert (stats.hits, stats.misses) == (1, 2)
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_stats_with_cache_off(self):
        service = build_service(compiled_routing=False)
        assert service.vra.cache_stats is None
        assert service.vra.decision_cache_stats is None


class TestTwoFlushes:
    """Availability moves far more often than routing does (every stream
    slot publishes it), so its flush drops the decisions only."""

    def test_availability_bump_keeps_table_and_prefixes_and_drops_decisions(self):
        service = build_service()
        report_traffic(service)
        memo = service.vra.cache
        first = service.decide("U2", "movie")
        other = service.decide("U3", "movie")
        assert service.decide("U2", "movie") is first
        stats = memo.stats
        before = (stats.weight_misses, stats.tree_misses, stats.invalidations)
        weight_hits, tree_hits = stats.weight_hits, stats.tree_hits
        churn_a_stream_slot(service)
        again = service.decide("U2", "movie")
        assert again is not first
        assert service.decide("U2", "movie") is again
        assert service.decide("U3", "movie") is not other
        assert (stats.weight_misses, stats.tree_misses, stats.invalidations) == before
        assert (stats.weight_hits, stats.tree_hits) == (weight_hits + 2, tree_hits + 2)
        assert again.weights is first.weights

    def test_routing_bump_drops_everything(self):
        service = build_service()
        report_traffic(service)
        memo = service.vra.cache
        first = service.decide("U2", "movie")
        stats = memo.stats
        before = (stats.weight_misses, stats.tree_misses, stats.invalidations)
        report_traffic(service, "4pm")
        again = service.decide("U2", "movie")
        assert again is not first
        assert service.decide("U2", "movie") is again
        assert (stats.weight_misses, stats.tree_misses, stats.invalidations) == tuple(
            count + 1 for count in before
        )
        assert again.weights is not first.weights


def flash_crowd_fingerprint(**config_kwargs):
    """Every session's outcome and cluster sources on a flash crowd at U5,
    whose two near-tied holders U1 and U4 fill and free stream slots all
    along; U5 is too small to cache the title, so every cluster routes."""
    from repro.workload.scenarios import flash_crowd_scenario

    special = VideoTitle("special", size_mb=200.0, duration_s=1_200.0)
    service = VoDService(
        Simulator(),
        build_grnet_topology(),
        ServiceConfig(
            cluster_mb=25.0,
            disk_count=2,
            disk_capacity_mb=1_000.0,
            max_streams=8,
            use_server_load_in_vra=True,
            server_overrides={"U5": {"disk_capacity_mb": 10.0}},
            **config_kwargs,
        ),
    )
    for uid in ("U1", "U4"):
        service.seed_title(uid, special)
    service.start()
    scenario = flash_crowd_scenario(
        "U5", special, viewer_count=16, start_s=300.0, ramp_s=900.0
    )
    for event in scenario.events:
        service.sim.schedule_at(
            event.time_s,
            lambda e=event: service.request_by_home(e.home_uid, e.title_id, e.client_id),
            name=f"request:{event.client_id}",
        )
    service.sim.run(until=5 * 3600.0)
    fingerprint = [
        (
            session.request.client_id,
            session.completed_at,
            session.request.failure_reason,
            [(c.index, c.server_uid, c.path_nodes) for c in session.clusters],
        )
        for session in service.sessions
    ]
    return fingerprint, service


def test_server_load_extension_memoized_matches_reference():
    """Fails when availability is left out of the routing part: a table
    kept across a slot change prices servers at their old load."""
    memoed, service = flash_crowd_fingerprint()
    reference, _ = flash_crowd_fingerprint(compiled_routing=False)
    assert memoed == reference
    assert {server for *_, clusters in memoed for _, server, _ in clusters} == {"U1", "U4"}
    # The memoized path ran, and every slot change flushed it.
    stats = service.vra.cache_stats
    assert stats.weight_misses > 0 and stats.invalidations > 0
