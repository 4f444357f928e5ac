"""Pinned titles x eviction interaction, including evict_until_fits."""

import pytest

from repro.placement import PlacementAction, WholeTitleDma
from repro.storage.array import DiskArray
from repro.storage.video import VideoTitle


def video(title_id: str, size_mb: float = 50.0) -> VideoTitle:
    return VideoTitle(title_id, size_mb=size_mb, duration_s=600.0)


@pytest.fixture
def array() -> DiskArray:
    return DiskArray(disk_count=1, disk_capacity_mb=100.0, cluster_mb=25.0)


class TestPinnedEviction:
    def test_pinned_title_never_evicted_single_pass(self, array):
        policy = WholeTitleDma(array)
        policy.seed(video("keep"))
        policy.seed(video("lose"))
        policy.pinned.add("keep")
        result = policy.on_request(video("new", 100.0))  # 1 > 0 for both
        assert array.has_video("keep")
        assert "keep" not in result.evicted

    def test_pinned_title_never_evicted_greedy(self, array):
        policy = WholeTitleDma(array, evict_until_fits=True)
        policy.seed(video("keep"))
        policy.seed(video("lose"))
        policy.pinned.add("keep")
        result = policy.on_request(video("new", 100.0))
        # Greedy eviction may only consume the unpinned resident; the
        # newcomer still does not fit and the victim is lost.
        assert result.action is PlacementAction.EVICTED_NOT_STORED
        assert result.evicted == ("lose",)
        assert array.has_video("keep")
        assert policy.lost_victims == 1

    def test_greedy_eviction_around_the_pin(self, array):
        policy = WholeTitleDma(array, evict_until_fits=True)
        policy.seed(video("keep", 25.0))
        policy.seed(video("a", 25.0))
        policy.seed(video("b", 25.0))
        policy.pinned.add("keep")
        result = policy.on_request(video("new", 75.0))  # needs both a and b gone
        assert result.action is PlacementAction.REPLACED
        assert set(result.evicted) == {"a", "b"}
        assert array.has_video("keep")
        assert array.has_video("new")

    def test_all_pinned_means_point_only(self, array):
        policy = WholeTitleDma(array, evict_until_fits=True)
        policy.seed(video("a"))
        policy.seed(video("b"))
        policy.pinned.add("a")
        policy.pinned.add("b")
        result = policy.on_request(video("new", 100.0))
        assert result.action is PlacementAction.POINT_ONLY
        assert result.evicted == ()
        assert array.stored_title_ids() == ["a", "b"]
