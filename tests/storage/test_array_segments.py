"""Fractional-object storage on the DiskArray (store_segment and friends)."""

import pytest

from repro.errors import StorageError
from repro.storage.array import DiskArray
from repro.storage.video import VideoTitle


def video(title_id: str = "v", size_mb: float = 100.0) -> VideoTitle:
    return VideoTitle(title_id, size_mb=size_mb, duration_s=3600.0)


@pytest.fixture
def array() -> DiskArray:
    # 2 x 100 MB, 10 MB clusters: a 100 MB video is 10 clusters.
    return DiskArray(disk_count=2, disk_capacity_mb=100.0, cluster_mb=10.0)


class TestStoreSegment:
    def test_stores_leading_clusters_only(self, array):
        achieved = array.store_segment(video(), 0.3)
        assert achieved == pytest.approx(0.3)
        assert array.resident_title_ids() == ["v"]
        assert not array.has_video("v")
        assert array.used_mb == pytest.approx(30.0)  # 3 clusters of 10 MB

    def test_fraction_rounds_up_to_whole_clusters(self, array):
        achieved = array.store_segment(video(), 0.25)
        assert achieved == pytest.approx(0.3)  # 2.5 -> 3 clusters
        assert array.used_mb == pytest.approx(30.0)

    def test_extension_adds_only_new_clusters(self, array):
        array.store_segment(video(), 0.3)
        achieved = array.store_segment(video(), 0.6)
        assert achieved == pytest.approx(0.6)
        assert array.used_mb == pytest.approx(60.0)

    def test_shrinking_is_a_noop(self, array):
        array.store_segment(video(), 0.6)
        achieved = array.store_segment(video(), 0.2)
        assert achieved == pytest.approx(0.6)
        assert array.used_mb == pytest.approx(60.0)

    def test_full_fraction_promotes_to_stored_video(self, array):
        array.store_segment(video(), 0.5)
        achieved = array.store_segment(video(), 1.0)
        assert achieved == 1.0
        assert array.has_video("v")
        assert array.resident_fraction("v") == 1.0
        assert "v" in array.stored_title_ids()

    def test_rejects_already_stored_video(self, array):
        array.store(video())
        with pytest.raises(StorageError):
            array.store_segment(video(), 0.5)

    def test_rejects_bad_fractions(self, array):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(StorageError):
                array.store_segment(video(), bad)

    def test_rejects_unfit_segment(self, array):
        array.store(video("filler", 180.0))
        with pytest.raises(StorageError):
            array.store_segment(video("v", 100.0), 0.9)

    def test_whole_store_rejected_while_partial_resident(self, array):
        array.store_segment(video(), 0.3)
        with pytest.raises(StorageError):
            array.store(video())
        assert not array.can_store(video())


class TestResidencyQueries:
    def test_resident_fraction_states(self, array):
        assert array.resident_fraction("v") == 0.0
        array.store_segment(video(), 0.4)
        assert array.resident_fraction("v") == pytest.approx(0.4)
        array.store_segment(video(), 1.0)
        assert array.resident_fraction("v") == 1.0

    def test_resident_title_ids_unions_full_and_partial(self, array):
        array.store(video("full", 50.0))
        array.store_segment(video("part", 100.0), 0.3)
        assert array.resident_title_ids() == ["full", "part"]
        assert array.stored_title_ids() == ["full"]

    def test_remove_clears_partial_segment(self, array):
        array.store_segment(video(), 0.5)
        array.remove("v")
        assert array.resident_fraction("v") == 0.0
        assert array.used_mb == pytest.approx(0.0)
        # Space is really back: a full store fits again.
        array.store(video())
        assert array.has_video("v")

    def test_can_store_segment_checks_only_new_clusters(self, array):
        array.store_segment(video(), 0.9)           # 90 MB resident
        array.store(video("filler", 100.0))          # array nearly full
        # Extending to 1.0 needs just one more 10 MB cluster.
        assert array.can_store_segment(video(), 1.0)

    def test_can_store_segment_refusals_and_no_op(self, array):
        # Only the disk-fit question: store_segment refuses a bad fraction
        # or a fully stored title itself (test_rejects_* above).
        array.store_segment(video(), 0.5)
        assert array.can_store_segment(video(), 0.3)  # already resident
        array.fail_disk(1)
        assert not array.can_store_segment(video("new", 20.0), 1.0)


class TestSegmentServability:
    def test_cluster_servable_within_segment_only(self, array):
        array.store_segment(video(), 0.3)
        assert array.cluster_servable("v", 0)
        assert array.cluster_servable("v", 2)
        assert not array.cluster_servable("v", 3)
        assert not array.cluster_servable("missing", 0)

    def test_cluster_servable_full_video(self, array):
        array.store(video())
        assert array.cluster_servable("v", 9)
        assert not array.cluster_servable("v", 10)

    def test_failed_disk_blocks_segment(self, array):
        array.store_segment(video(), 0.3)   # clusters on both disks
        assert all(array.cluster_servable("v", k) for k in range(3))
        array.fail_disk(0)
        # Clusters 0 and 2 lie on the dead disk; cluster 1 still serves.
        assert [array.cluster_servable("v", k) for k in range(3)] == [False, True, False]
        array.restore_disk(0)
        assert all(array.cluster_servable("v", k) for k in range(3))
