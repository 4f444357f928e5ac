"""Unit tests for the striped disk array."""

import pytest

from repro.errors import StorageError, StripingError
from repro.storage.array import DiskArray
from repro.storage.video import VideoTitle


@pytest.fixture
def array() -> DiskArray:
    return DiskArray(disk_count=3, disk_capacity_mb=100.0, cluster_mb=25.0)


def video(title_id: str, size_mb: float) -> VideoTitle:
    return VideoTitle(title_id, size_mb=size_mb, duration_s=600.0)


class TestConstruction:
    def test_capacity_aggregates(self, array):
        assert array.disk_count == 3
        assert array.total_capacity_mb == 300.0
        assert array.used_mb == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(StripingError):
            DiskArray(0, 100.0, 25.0)
        with pytest.raises(StripingError):
            DiskArray(3, 100.0, 0.0)
        with pytest.raises(StorageError):
            DiskArray(3, 0.0, 25.0)

    def test_disk_index_bounds(self, array):
        assert array.disk(0).disk_index == 0
        with pytest.raises(StorageError):
            array.disk(3)


class TestStoreRemove:
    def test_store_stripes_across_disks(self, array):
        layout = array.store(video("v", 110.0))
        assert layout.cluster_count == 5
        assert array.has_video("v")
        # Clusters 0-4 (25, 25, 25, 25, 10 MB) land on disks 0, 1, 2, 0, 1.
        assert [array.disk(i).used_mb for i in range(3)] == pytest.approx([50.0, 35.0, 25.0])
        assert array.used_mb == pytest.approx(110.0)

    def test_duplicate_store_rejected(self, array):
        array.store(video("v", 50.0))
        with pytest.raises(StorageError):
            array.store(video("v", 50.0))

    def test_remove_frees_all_clusters(self, array):
        array.store(video("v", 110.0))
        removed = array.remove("v")
        assert removed.title_id == "v"
        assert array.used_mb == 0.0
        assert not array.has_video("v")
        assert [array.disk(i).used_mb for i in range(3)] == [0.0, 0.0, 0.0]

    def test_remove_missing_rejected(self, array):
        with pytest.raises(StorageError):
            array.remove("nope")

    def test_store_failure_leaves_array_clean(self, array):
        # Skew disk 0 so the cyclic layout cannot place the video even
        # though total free space would suffice.
        array.store(video("filler", 75.0))  # 25 MB on each disk
        from repro.storage.disk import StoredCluster

        array.disk(0).store(StoredCluster("pad", 0, 74.0))
        big = video("big", 150.0)  # needs 50 MB on disk 0
        assert not array.can_store(big)
        with pytest.raises(StorageError):
            array.store(big)
        assert not array.has_video("big")
        assert array.disk(1).used_mb == pytest.approx(25.0)


class TestCanStore:
    def test_respects_per_disk_capacity_not_just_total(self, array):
        from repro.storage.disk import StoredCluster

        # 90 MB free on disks 1-2 but only 1 MB on disk 0.
        array.disk(0).store(StoredCluster("pad", 0, 99.0))
        assert not array.can_store(video("v", 110.0))

    def test_exact_fit(self, array):
        assert array.can_store(video("v", 300.0))
        array.store(video("v", 300.0))
        assert array.used_mb == pytest.approx(300.0)

    def test_already_stored_is_not_storable(self, array):
        array.store(video("v", 50.0))
        assert not array.can_store(video("v", 50.0))


class TestQueries:
    def test_stored_title_ids_sorted(self, array):
        array.store(video("b", 25.0))
        array.store(video("a", 25.0))
        assert array.stored_title_ids() == ["a", "b"]

    def test_layout_for_preview_matches_store(self, array):
        preview = array.layout_for(video("v", 110.0))
        actual = array.store(video("v", 110.0))
        assert preview == actual
