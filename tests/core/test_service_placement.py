"""Service-level placement behaviour: trace families, fraction-aware
holder advertisement, and the prefix-local serving fast path."""

import pytest

from repro.core.service import ServiceConfig, VoDService
from repro.placement import PlacementConfig
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.storage.video import VideoTitle


def build_service(grnet_8am, tracer=None, **config_kwargs) -> VoDService:
    config = ServiceConfig(
        cluster_mb=50.0, use_reported_stats=False, **config_kwargs
    )
    sim = Simulator(start_time=8 * 3600.0)
    return VoDService(sim, grnet_8am, config, tracer=tracer)


def title(title_id: str = "m", size_mb: float = 200.0) -> VideoTitle:
    return VideoTitle(title_id, size_mb=size_mb, duration_s=3600.0)


class TestTraceFamilies:
    def test_default_policy_emits_placement_pass_only(self, grnet_8am):
        tracer = Tracer()
        service = build_service(grnet_8am, tracer=tracer)
        service.seed_title("U4", title())
        service.request_by_home("U2", "m")
        service.sim.run(until=service.sim.now + 3600.0)
        passes = tracer.events("placement.pass")
        assert passes
        assert "resident_fraction" in passes[0].data
        assert tracer.events("dma.pass") == []


class TestFractionAwareAdvertisement:
    def test_prefix_holder_advertised_with_fraction(self, grnet_8am):
        service = build_service(
            grnet_8am,
            placement=PlacementConfig(
                kind="prefix", prefix_minutes=15.0, hot_points=1
            ),
        )
        service.seed_title("U4", title())
        service.request_by_home("U2", "m")
        service.sim.run(until=service.sim.now + 3600.0)
        # 15 of 60 minutes -> a quarter of the title at the home server.
        assert service.database.holder_fraction("m", "U2") == pytest.approx(0.25)
        assert service.database.holder_fraction("m", "U4") == 1.0

    def test_vra_prefers_full_holders_over_prefix_holders(self, grnet_8am):
        service = build_service(
            grnet_8am,
            placement=PlacementConfig(
                kind="prefix", prefix_minutes=15.0, hot_points=1
            ),
        )
        service.seed_title("U4", title())
        service.request_by_home("U2", "m")
        service.sim.run(until=service.sim.now + 3600.0)
        # U2 now holds a prefix; the full-holder list must exclude it.
        holders = service.database.servers_with_title("m", min_fraction=1.0)
        assert holders == ["U4"]
        # A neighbouring request must therefore stream its remote clusters
        # from U4, never from the prefix holder U2.  (U1 cuts its own
        # prefix on the pass, so its first cluster is local to U1.)
        _, session, _ = service.request_by_home("U1", "m")
        service.sim.run(until=service.sim.now + 3600.0)
        sources = {c.server_uid for c in session.record.clusters}
        assert "U2" not in sources
        assert "U4" in sources


class TestPrefixLocalServing:
    def test_prefix_clusters_served_locally_suffix_remote(self, grnet_8am):
        service = build_service(
            grnet_8am,
            placement=PlacementConfig(
                kind="prefix", prefix_minutes=15.0, hot_points=1
            ),
        )
        service.seed_title("U4", title())
        _, session, _ = service.request_by_home("U2", "m")
        service.sim.run(until=service.sim.now + 4 * 3600.0)
        record = session.record
        assert record.completed_at is not None
        # 4 clusters of 50 MB; the first (the 0.25 prefix) is local.
        assert record.clusters[0].server_uid == "U2"
        assert record.clusters[0].path_nodes == ("U2",)
        assert {c.server_uid for c in record.clusters[1:]} == {"U4"}

    def test_default_dma_path_has_no_cluster_decider(self, grnet_8am):
        service = build_service(grnet_8am)
        service.seed_title("U4", title())
        _, session, _ = service.request_by_home("U2", "m")
        assert session._decide_for_cluster is None
        service.sim.run(until=service.sim.now + 3600.0)
        assert session.record.completed_at is not None
