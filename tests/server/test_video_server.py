"""Unit tests for the VideoServer layer."""

import pytest

from repro.placement import PlacementAction, PlacementConfig
from repro.database.store import ServiceDatabase
from repro.errors import AdmissionError, StorageError
from repro.server.video_server import VideoServer
from repro.storage.video import VideoTitle


def make_server(**overrides) -> VideoServer:
    defaults = dict(
        node_uid="U1",
        database=ServiceDatabase(),
        disk_count=2,
        disk_capacity_mb=100.0,
        cluster_mb=25.0,
        max_streams=2,
    )
    defaults.update(overrides)
    server = VideoServer(**defaults)
    from repro.database.records import ServerEntry

    server._database.register_server(ServerEntry(server.node_uid))
    return server


def video(title_id="v", size_mb=100.0):
    return VideoTitle(title_id, size_mb=size_mb, duration_s=600.0)


class TestSeeding:
    def test_seed_stores_and_advertises_immediately(self):
        server = make_server()
        server.seed_title(video())
        assert server.has_title("v")
        assert server._database.servers_with_title("v") == ["U1"]
        assert server.pending_title_ids() == []

    def test_seed_registers_catalog_info(self):
        server = make_server()
        server.seed_title(video())
        assert server._database.title_info("v").size_mb == 100.0

    def test_seed_overflow_raises(self):
        server = make_server()
        with pytest.raises(StorageError):
            server.seed_title(video(size_mb=500.0))


class TestServing:
    def test_can_provide_requires_title_and_capacity(self):
        server = make_server(max_streams=1)
        assert not server.can_provide("v")
        server.seed_title(video())
        assert server.can_provide("v")
        lease = server.begin_serving("v")
        assert not server.can_provide("v")  # at stream capacity
        server.end_serving(lease)
        assert server.can_provide("v")

    def test_offline_server_cannot_provide(self):
        server = make_server()
        server.seed_title(video())
        server.online = False
        assert not server.can_provide("v")

    def test_begin_serving_nonresident_rejected(self):
        server = make_server()
        with pytest.raises(StorageError):
            server.begin_serving("ghost")

    def test_admission_limit_enforced(self):
        server = make_server(max_streams=1)
        server.seed_title(video())
        server.begin_serving("v")
        with pytest.raises(AdmissionError):
            server.begin_serving("v")

    def test_serve_count_increments(self):
        server = make_server()
        server.seed_title(video())
        lease = server.begin_serving("v")
        server.end_serving(lease)
        server.begin_serving("v")
        assert server.serve_count == 2


class TestDeferredAdvertisement:
    def test_dma_store_is_pending_until_commit(self):
        server = make_server()
        result = server.on_download_begins(video())
        assert result.action is PlacementAction.STORED
        assert server.array.has_video("v")  # bytes present
        assert not server.has_title("v")  # but not servable
        assert server._database.servers_with_title("v") == []
        assert server.pending_title_ids() == ["v"]

    def test_commit_advertises(self):
        server = make_server()
        server.on_download_begins(video())
        server.commit_download("v")
        assert server.has_title("v")
        assert server._database.servers_with_title("v") == ["U1"]
        assert server.pending_title_ids() == []

    def test_abort_drops_partial_bytes(self):
        server = make_server()
        server.on_download_begins(video())
        server.abort_download("v")
        assert not server.array.has_video("v")
        assert server._database.servers_with_title("v") == []

    def test_commit_of_unknown_title_is_noop(self):
        server = make_server()
        server.commit_download("ghost")
        server.abort_download("ghost")

    def test_evicting_a_promoted_prefix_before_commit_drops_its_advertisement(self):
        # A fractional policy advertised a prefix, then grew it into a full
        # copy whose download is still in flight: evicting it now must also
        # withdraw the prefix advertisement.
        server = make_server()
        server._register_catalog_info(video())
        server._advertise_partial("v", 0.5)
        server._advertise("v")
        assert server.pending_title_ids() == ["v"]
        assert server._database.holds_title("U1", "v")
        server._withdraw("v")
        assert server.pending_title_ids() == []
        assert not server._database.holds_title("U1", "v")

    def test_a_baseline_kind_builds_its_policy(self):
        from repro.baselines.caching import LruCachePolicy

        server = make_server(placement=PlacementConfig(kind="lru"))
        assert isinstance(server.policy, LruCachePolicy)
        assert server.on_download_begins(video()).cached

    def test_pending_eviction_before_commit_is_silent(self):
        # A pending (in-flight) title evicted by a later DMA pass must not
        # touch the database, since it was never advertised.
        server = make_server()
        server.on_download_begins(video("a"))  # pending store, 0 points
        server.on_download_begins(video("b"))  # pending store, 0 points
        result = server.on_download_begins(video("c"))  # 1 point > 0 -> evicts a
        assert "a" in result.evicted
        assert server._database.servers_with_title("a") == []
        server.commit_download("a")  # no longer pending: noop
        assert server._database.servers_with_title("a") == []

    def test_committed_title_eviction_withdraws_advertisement(self):
        server = make_server()
        server.seed_title(video("a"))
        server.seed_title(video("b"))
        result = server.on_download_begins(video("c"))  # 1 > 0 -> evicts a
        assert result.evicted == ("a",)
        assert server._database.servers_with_title("a") == []


class TestDmaHitPath:
    def test_request_for_seeded_title_is_hit(self):
        server = make_server()
        server.seed_title(video())
        result = server.on_download_begins(video())
        assert result.action is PlacementAction.HIT
        assert server.policy.points_of("v") == 1
