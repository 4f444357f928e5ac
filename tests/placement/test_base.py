"""Contract tests for the PlacementPolicy interface and PlacementConfig."""

import pytest

from repro.baselines.caching import (
    FullReplicationPolicy,
    LruCachePolicy,
    NoCachePolicy,
)
from repro.errors import ServiceError
from repro.placement import (
    PLACEMENT_KINDS,
    PlacementAction,
    PlacementConfig,
    PlacementResult,
    PopularityWeightedPartial,
    PrefixReplication,
    WholeTitleDma,
)
from repro.storage.array import DiskArray
from repro.storage.video import VideoTitle


def video(title_id: str, size_mb: float = 100.0) -> VideoTitle:
    return VideoTitle(title_id, size_mb=size_mb, duration_s=3600.0)


@pytest.fixture
def array() -> DiskArray:
    return DiskArray(disk_count=2, disk_capacity_mb=100.0, cluster_mb=25.0)


class TestPlacementResult:
    def test_frozen(self):
        result = PlacementResult(
            title_id="v", action=PlacementAction.HIT, points=1
        )
        with pytest.raises(AttributeError):
            result.points = 2

    def test_defaults(self):
        result = PlacementResult(
            title_id="v", action=PlacementAction.POINT_ONLY, points=0
        )
        assert result.evicted == ()
        assert not result.cached
        assert result.resident_fraction == 0.0


class TestPolicyContract:
    def test_action_counts_tally_every_pass(self, array):
        policy = WholeTitleDma(array)
        policy.on_request(video("a"))        # stored
        policy.on_request(video("a"))        # hit
        policy.on_request(video("b"))        # stored
        policy.on_request(video("c"))        # point only (1 !> 1? a has 1, b 0 -> replaced)
        total = sum(policy.action_counts.values())
        assert total == policy.pass_count == 4
        assert policy.action_counts["hit"] == policy.hit_count == 1

    def test_seed_gives_no_point(self, array):
        policy = WholeTitleDma(array)
        policy.seed(video("v"))
        assert policy.points_of("v") == 0
        assert array.has_video("v")

    def test_pin_protects_title(self, array):
        policy = WholeTitleDma(array)
        policy.seed(video("a"))
        policy.seed(video("b"))
        policy.pinned.add("a")
        policy.on_request(video("c"))  # 1 point beats both 0-point residents
        assert array.has_video("a")   # pinned survives
        assert not array.has_video("b")

    def test_every_policy_satisfies_interface(self, array):
        for cls in (WholeTitleDma, PrefixReplication, PopularityWeightedPartial):
            policy = cls(DiskArray(disk_count=2, disk_capacity_mb=100.0,
                                   cluster_mb=25.0))
            result = policy.on_request(video("v"))
            assert isinstance(result, PlacementResult)
            assert policy.pass_count == 1


class TestPlacementConfig:
    def test_default_is_dma(self):
        config = PlacementConfig()
        assert config.kind == "dma"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError):
            PlacementConfig(kind="mru")

    def test_bad_knobs_rejected(self):
        with pytest.raises(ServiceError):
            PlacementConfig(kind="prefix", prefix_minutes=0.0)
        with pytest.raises(ServiceError):
            PlacementConfig(kind="partial", partial_floor=1.5)

    def test_build_constructs_matching_policy(self, array):
        cases = {
            "dma": WholeTitleDma,
            "prefix": PrefixReplication,
            "partial": PopularityWeightedPartial,
            "dma-greedy": WholeTitleDma,
            "nocache": NoCachePolicy,
            "lru": LruCachePolicy,
            "fullrep": FullReplicationPolicy,
        }
        assert set(cases) == set(PLACEMENT_KINDS)
        for kind, cls in cases.items():
            policy = PlacementConfig(kind=kind).build(
                DiskArray(disk_count=2, disk_capacity_mb=100.0, cluster_mb=25.0)
            )
            assert type(policy) is cls
            if cls is WholeTitleDma:
                assert policy.evict_until_fits == (kind == "dma-greedy")

    def test_build_forwards_hooks(self, array):
        stored, evicted = [], []
        policy = PlacementConfig(kind="dma").build(
            array, on_store=stored.append, on_evict=evicted.append
        )
        policy.on_request(video("a"))
        assert stored == ["a"]
