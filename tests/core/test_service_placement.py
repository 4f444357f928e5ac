"""Service-level placement behaviour: the placement pass on a request's
span, fraction-aware holder advertisement, and per-cluster holder sets
(a partial copy serves the clusters it holds, at home and to its
neighbours)."""

from repro.core.service import ServiceConfig, VoDService
from repro.placement import PlacementConfig
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def build_service(grnet_8am, **config_kwargs) -> VoDService:
    config = ServiceConfig(
        cluster_mb=50.0, use_reported_stats=False, **config_kwargs
    )
    sim = Simulator(start_time=8 * 3600.0)
    return VoDService(sim, grnet_8am, config)


def title(title_id: str = "m", size_mb: float = 200.0) -> VideoTitle:
    return VideoTitle(title_id, size_mb=size_mb, duration_s=3600.0)


def holders_with_at_least(database, title_id: str, fraction: float):
    """The servers advertising at least ``fraction`` of a title, from the
    raw location and fraction stores (a full copy has no fraction entry)."""
    return sorted(
        uid
        for uid in database.servers_with_title(title_id)
        if database._holder_fractions.get(title_id, {}).get(uid, 1.0) >= fraction - 1e-9
    )


class TestTraceFamilies:
    def test_default_policy_emits_placement_pass_only(self, grnet_8am):
        """The home's placement pass is recorded once, on the span's
        ``submitted`` event, and nowhere else in the row stream."""
        service = build_service(grnet_8am, observability=True)
        service.seed_title("U4", title())
        service.request_by_home("U2", "m")
        service.sim.run(until=service.sim.now + 3600.0)
        [span] = [row for row in service.telemetry.sink.rows if row["kind"] == "span"]
        submitted = span["events"][0]
        assert submitted["kind"] == "submitted"
        assert submitted["dma_action"] == "stored"
        assert submitted["dma_evicted"] == []
        assert submitted["dma_resident_fraction"] == 1.0
        assert {row["kind"] for row in service.telemetry.sink.rows} == {"span"}


class TestFractionAwareAdvertisement:
    def test_prefix_holder_advertised_with_fraction(self, grnet_8am):
        service = build_service(
            grnet_8am,
            placement=PlacementConfig(kind="prefix", prefix_minutes=15.0),
        )
        service.seed_title("U4", title())
        for _ in range(2):  # the second request makes the title hot at U2
            service.request_by_home("U2", "m")
            service.sim.run(until=service.sim.now + 3600.0)
        # 15 of 60 minutes -> a quarter of the title at the home server.
        database = service.database
        assert database.servers_with_title("m") == ["U2", "U4"]
        assert holders_with_at_least(database, "m", 0.25) == ["U2", "U4"]
        assert holders_with_at_least(database, "m", 0.26) == ["U4"]
        assert holders_with_at_least(database, "m", 1.0) == ["U4"]
        assert database.full_holders("m") == ("U4",)

    def test_a_remote_prefix_holder_sources_only_the_clusters_it_holds(self, grnet_8am):
        service = build_service(
            grnet_8am,
            placement=PlacementConfig(kind="prefix", prefix_minutes=15.0),
        )
        service.seed_title("U4", title())
        for _ in range(2):  # the second request makes the title hot at U2
            service.request_by_home("U2", "m")
            service.sim.run(until=service.sim.now + 3600.0)
        # U2 holds the first of four 50 MB clusters: a holder of cluster
        # 0 only, and never of the whole title.
        database = service.database
        assert database.full_holders("m") == ("U4",)
        assert database.cluster_holders("m", 50.0) == ("U2", "U4")
        assert database.cluster_holders("m", 100.0) is None
        # U1 (its first request of the title, so no prefix of its own)
        # fetches cluster 0 from its neighbour U2, and every later
        # cluster from the full holder U4.
        _, session, _ = service.request_by_home("U1", "m")
        service.sim.run(until=service.sim.now + 3600.0)
        record = session.record
        assert record.completed_at is not None
        assert [(c.index, c.server_uid) for c in record.clusters] == [
            (0, "U2"), (1, "U4"), (2, "U4"), (3, "U4"),
        ]
        assert record.clusters[0].path_nodes == ("U1", "U2")
        # The per-cluster decision is keyed by the cluster; the
        # whole-title question still sees the full holder only.
        assert service.decide("U1", "m").chosen_uid == "U4"
        assert service.decide("U1", "m", 0).chosen_uid == "U2"
        assert service.decide("U1", "m", 1) == service.decide("U1", "m")


class TestPrefixLocalServing:
    def test_prefix_clusters_served_locally_suffix_remote(self, grnet_8am):
        service = build_service(
            grnet_8am,
            placement=PlacementConfig(kind="prefix", prefix_minutes=15.0),
        )
        service.seed_title("U4", title())
        service.request_by_home("U2", "m")  # the title's first point at U2
        service.sim.run(until=service.sim.now + 4 * 3600.0)
        _, session, _ = service.request_by_home("U2", "m")
        service.sim.run(until=service.sim.now + 4 * 3600.0)
        record = session.record
        assert record.completed_at is not None
        # 4 clusters of 50 MB; the first (the 0.25 prefix) is local.
        assert record.clusters[0].server_uid == "U2"
        assert record.clusters[0].path_nodes == ("U2",)
        assert {c.server_uid for c in record.clusters[1:]} == {"U4"}
