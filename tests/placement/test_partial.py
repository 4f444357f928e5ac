"""Unit tests for popularity-weighted partial caching."""

import pytest

from repro.errors import CacheError
from repro.placement import PlacementAction, PopularityWeightedPartial
from repro.storage.array import DiskArray
from repro.storage.video import VideoTitle


def video(title_id: str, size_mb: float = 100.0) -> VideoTitle:
    return VideoTitle(title_id, size_mb=size_mb, duration_s=3600.0)


@pytest.fixture
def array() -> DiskArray:
    # 2 x 100 MB = 200 MB total, 10 MB clusters.
    return DiskArray(disk_count=2, disk_capacity_mb=100.0, cluster_mb=10.0)


class TestKnobValidation:
    def test_rejects_bad_floor(self, array):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(CacheError):
                PopularityWeightedPartial(array, floor_fraction=bad)


class TestProportionalBehaviour:
    def test_floor_caches_head_segment_for_cold_titles(self, array):
        policy = PopularityWeightedPartial(array, floor_fraction=0.25)
        for _ in range(9):
            policy.on_request(video("hot"))   # full copy; hot holds 9 points
        # cold's proportional share is (1/10) * (200/100) = 0.2 < floor.
        result = policy.on_request(video("cold"))
        assert result.action is PlacementAction.PREFIX_STORED
        # The floor, rounded up to whole clusters.
        assert 0.25 <= result.resident_fraction < 1.0
        assert "cold" in array.resident_title_ids()
        assert not array.has_video("cold")

    def test_fraction_grows_with_points(self, array):
        # Two 400 MB titles over a 200 MB array: the repeatedly-requested
        # one ends up holding a strictly larger fraction.
        policy = PopularityWeightedPartial(array, floor_fraction=0.1)
        policy.on_request(video("cold", size_mb=400.0))
        for _ in range(4):
            policy.on_request(video("hot", size_mb=400.0))
        assert (
            array.resident_fraction("hot") > array.resident_fraction("cold")
        )

    def test_dominant_title_promoted_to_full_copy(self, array):
        stored = []
        policy = PopularityWeightedPartial(
            array, floor_fraction=0.1, on_store=stored.append
        )
        result = policy.on_request(video("v"))
        # Sole title -> share = capacity/size = 2.0, clamped to 1.0: the
        # segment covers every cluster and is stored as a full copy.
        assert result.cached
        assert array.has_video("v")
        assert "v" in stored
        assert policy.on_request(video("v")).action is PlacementAction.HIT

    def test_target_fraction_is_points_proportional(self, array):
        policy = PopularityWeightedPartial(array, floor_fraction=0.01)
        policy.on_request(video("a", size_mb=400.0))
        policy.on_request(video("b", size_mb=400.0))
        policy.on_request(video("b", size_mb=400.0))
        # a: 1/3 of points, b: 2/3; capacity/size = 0.5.
        assert policy.target_fraction(video("a", size_mb=400.0)) == pytest.approx(1 / 6)
        assert policy.target_fraction(video("b", size_mb=400.0)) == pytest.approx(1 / 3)

    def test_segments_extend_in_place(self, array):
        policy = PopularityWeightedPartial(array, floor_fraction=0.1)
        policy.on_request(video("a", size_mb=400.0))  # grabs the array
        policy.on_request(video("b", size_mb=400.0))  # 1 !> 1: point only
        policy.on_request(video("b", size_mb=400.0))  # 2 > 1: evicts a, cuts segment
        first = array.resident_fraction("b")
        assert first > 0
        assert not array.has_video("a")
        policy.on_request(video("b", size_mb=400.0))  # share grew: extend
        assert array.resident_fraction("b") > first
        # Still partial: capacity (200) / size (400) caps the share at 0.5.
        assert not array.has_video("b")
        assert array.resident_fraction("b") <= 0.5 + 1e-9
