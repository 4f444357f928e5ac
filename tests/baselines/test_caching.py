"""Unit tests for the cache-policy baselines."""

import pytest

from repro.baselines.caching import (
    FullReplicationPolicy,
    LruCachePolicy,
    NoCachePolicy,
)
from repro.placement import PlacementAction
from repro.storage.array import DiskArray
from repro.storage.video import VideoTitle


def video(title_id, size_mb=100.0):
    return VideoTitle(title_id, size_mb=size_mb, duration_s=600.0)


@pytest.fixture
def array():
    return DiskArray(disk_count=2, disk_capacity_mb=100.0, cluster_mb=25.0)


class TestNoCache:
    def test_never_stores_on_request(self, array):
        policy = NoCachePolicy(array)
        result = policy.on_request(video("v"))
        assert result.action is PlacementAction.POINT_ONLY
        assert not array.has_video("v")

    def test_seeded_titles_hit(self, array):
        policy = NoCachePolicy(array)
        policy.seed(video("v"))
        result = policy.on_request(video("v"))
        assert result.action is PlacementAction.HIT

    def test_points_still_counted(self, array):
        policy = NoCachePolicy(array)
        policy.on_request(video("v"))
        policy.on_request(video("v"))
        assert policy.points_of("v") == 2


class TestLru:
    def test_admits_everything_that_fits(self, array):
        policy = LruCachePolicy(array)
        assert policy.on_request(video("a")).action is PlacementAction.STORED
        assert policy.on_request(video("b")).action is PlacementAction.STORED
        assert array.stored_title_ids() == ["a", "b"]

    def test_evicts_least_recently_used(self, array):
        policy = LruCachePolicy(array)
        policy.on_request(video("a"))
        policy.on_request(video("b"))
        policy.on_request(video("a"))  # refresh a
        result = policy.on_request(video("c"))
        assert result.action is PlacementAction.REPLACED
        assert result.evicted == ("b",)
        assert array.stored_title_ids() == ["a", "c"]

    def test_hit_refreshes_recency(self, array):
        policy = LruCachePolicy(array)
        policy.on_request(video("a"))
        policy.on_request(video("b"))
        policy.on_request(video("a"))
        policy.on_request(video("c"))  # evicts b
        policy.on_request(video("d"))  # evicts a (b already gone)
        assert array.stored_title_ids() == ["c", "d"]

    def test_evicts_multiple_victims_for_big_title(self, array):
        policy = LruCachePolicy(array)
        policy.on_request(video("a", 100.0))
        policy.on_request(video("b", 100.0))
        result = policy.on_request(video("big", 150.0))
        assert result.action is PlacementAction.REPLACED
        assert set(result.evicted) == {"a", "b"}
        assert array.stored_title_ids() == ["big"]

    def test_title_bigger_than_array_not_stored(self, array):
        policy = LruCachePolicy(array)
        policy.on_request(video("a"))
        result = policy.on_request(video("huge", 500.0))
        assert not result.cached
        assert result.action in (PlacementAction.POINT_ONLY, PlacementAction.EVICTED_NOT_STORED)

    def test_title_bigger_than_an_empty_array_is_point_only(self, array):
        result = LruCachePolicy(array).on_request(video("huge", 500.0))
        assert result.action is PlacementAction.POINT_ONLY
        assert not result.evicted and array.stored_title_ids() == []

    def test_seed_participates_in_recency(self, array):
        policy = LruCachePolicy(array)
        policy.seed(video("seeded"))
        policy.on_request(video("b"))
        policy.on_request(video("c"))  # seeded is LRU -> evicted
        assert "seeded" not in array.stored_title_ids()


class TestFullReplication:
    def test_stores_while_space_lasts(self, array):
        policy = FullReplicationPolicy(array)
        assert policy.on_request(video("a")).action is PlacementAction.STORED
        assert policy.on_request(video("b")).action is PlacementAction.STORED
        assert policy.on_request(video("c")).action is PlacementAction.POINT_ONLY
        assert array.stored_title_ids() == ["a", "b"]

    def test_never_evicts(self, array):
        policy = FullReplicationPolicy(array)
        policy.on_request(video("a"))
        policy.on_request(video("b"))
        for _ in range(10):
            policy.on_request(video("c"))
        assert array.stored_title_ids() == ["a", "b"]

    def test_hits_on_stored(self, array):
        policy = FullReplicationPolicy(array)
        policy.on_request(video("a"))
        assert policy.on_request(video("a")).action is PlacementAction.HIT


class TestCallbacks:
    def test_store_and_evict_hooks_fire(self, array):
        stored, evicted = [], []
        policy = LruCachePolicy(array, on_store=stored.append, on_evict=evicted.append)
        policy.on_request(video("a"))
        policy.on_request(video("b"))
        policy.on_request(video("c"))
        assert stored == ["a", "b", "c"]
        assert evicted == ["a"]
