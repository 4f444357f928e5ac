"""Unit tests for the prefix-replication policy (arXiv 1003.4049 style:
cache the first N playback minutes of hot titles, stream suffixes from
full holders)."""

import pytest

from repro.errors import CacheError
from repro.placement import PlacementAction, PrefixReplication
from repro.storage.array import DiskArray
from repro.storage.video import VideoTitle


def video(title_id: str, size_mb: float = 100.0, minutes: float = 60.0) -> VideoTitle:
    return VideoTitle(title_id, size_mb=size_mb, duration_s=minutes * 60.0)


@pytest.fixture
def array() -> DiskArray:
    return DiskArray(disk_count=2, disk_capacity_mb=100.0, cluster_mb=10.0)


class TestKnobValidation:
    def test_rejects_bad_prefix_minutes(self, array):
        with pytest.raises(CacheError):
            PrefixReplication(array, prefix_minutes=0.0)


class TestPrefixBehaviour:
    def test_cold_title_gets_point_only(self, array):
        policy = PrefixReplication(array)
        result = policy.on_request(video("v"))
        assert result.action is PlacementAction.POINT_ONLY
        assert result.resident_fraction == 0.0
        assert array.resident_fraction("v") == 0.0

    def test_hot_title_earns_its_prefix(self, array):
        policy = PrefixReplication(array, prefix_minutes=6.0)
        policy.on_request(video("v"))                    # 1 point: cold
        result = policy.on_request(video("v"))           # 2 points: hot
        assert result.action is PlacementAction.PREFIX_STORED
        # 6 of 60 minutes -> one tenth of the title.
        assert result.resident_fraction == pytest.approx(0.1)
        assert array.resident_fraction("v") == pytest.approx(0.1)
        assert not array.has_video("v")

    def test_prefix_advertised_fraction_aware(self, array):
        adverts = []
        policy = PrefixReplication(
            array,
            prefix_minutes=6.0,
            on_partial=lambda tid, f: adverts.append((tid, f)),
        )
        policy.on_request(video("v"))
        assert adverts == []
        policy.on_request(video("v"))
        assert adverts == [("v", pytest.approx(0.1))]

    def test_prefix_not_regrown_once_cut(self, array):
        policy = PrefixReplication(array, prefix_minutes=6.0)
        policy.on_request(video("v"))
        policy.on_request(video("v"))                    # cut
        result = policy.on_request(video("v"))
        assert result.action is PlacementAction.POINT_ONLY
        assert result.resident_fraction == pytest.approx(0.1)
        assert policy.prefix_hit_count == 1

    def test_full_resident_is_a_hit(self, array):
        policy = PrefixReplication(array)
        policy.seed(video("v", size_mb=50.0))
        result = policy.on_request(video("v", size_mb=50.0))
        assert result.action is PlacementAction.HIT
        assert result.cached
        assert result.resident_fraction == 1.0

    def test_short_title_prefix_covers_everything(self, array):
        # A 5-minute title with a 10-minute prefix window: the "prefix"
        # is the whole title, stored and advertised as a full copy.
        policy = PrefixReplication(array, prefix_minutes=10.0)
        policy.on_request(video("v", size_mb=40.0, minutes=5.0))
        result = policy.on_request(video("v", size_mb=40.0, minutes=5.0))
        assert result.action is PlacementAction.STORED
        assert result.cached
        assert array.has_video("v")

    def test_makes_room_by_evicting_less_popular(self):
        tight = DiskArray(disk_count=2, disk_capacity_mb=50.0, cluster_mb=10.0)
        policy = PrefixReplication(tight, prefix_minutes=60.0)
        policy.seed(video("cold", size_mb=90.0))         # fills the array
        policy.on_request(video("hot", size_mb=90.0))    # 1 point: cold
        assert tight.has_video("cold")
        policy.on_request(video("hot", size_mb=90.0))    # 2 > 0: evict cold
        assert not tight.has_video("cold")
        assert policy.eviction_count == 1

    def test_popular_resident_blocks_eviction(self):
        tight = DiskArray(disk_count=2, disk_capacity_mb=50.0, cluster_mb=10.0)
        policy = PrefixReplication(tight, prefix_minutes=60.0)
        policy.seed(video("fav", size_mb=90.0))
        for _ in range(3):
            policy.on_request(video("fav", size_mb=90.0))    # fav: 3 points
        policy.on_request(video("new", size_mb=90.0))
        result = policy.on_request(video("new", size_mb=90.0))  # 2 !> 3
        assert result.action is PlacementAction.POINT_ONLY
        assert tight.has_video("fav")
