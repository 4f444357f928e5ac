"""Unit tests for the single-disk model."""

import pytest

from repro.errors import StorageError
from repro.storage.disk import Disk, StoredCluster


class TestDisk:
    def test_initial_state(self):
        disk = Disk(0, capacity_mb=100.0)
        assert disk.used_mb == 0.0
        assert disk.free_mb == 100.0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(StorageError):
            Disk(0, capacity_mb=0.0)

    def test_store_and_accounting(self):
        disk = Disk(0, 100.0)
        disk.store(StoredCluster("v", 0, 30.0))
        disk.store(StoredCluster("v", 1, 20.0))
        assert disk.used_mb == pytest.approx(50.0)
        assert disk.free_mb == pytest.approx(50.0)

    def test_overflow_rejected(self):
        disk = Disk(0, 100.0)
        disk.store(StoredCluster("v", 0, 90.0))
        with pytest.raises(StorageError):
            disk.store(StoredCluster("v", 1, 20.0))

    def test_duplicate_cluster_rejected(self):
        disk = Disk(0, 100.0)
        disk.store(StoredCluster("v", 0, 10.0))
        with pytest.raises(StorageError):
            disk.store(StoredCluster("v", 0, 10.0))

    def test_remove_reclaims_space(self):
        disk = Disk(0, 100.0)
        disk.store(StoredCluster("v", 0, 40.0))
        removed = disk.remove("v", 0)
        assert removed.size_mb == 40.0
        assert disk.used_mb == 0.0
        with pytest.raises(StorageError):  # the cluster is gone
            disk.remove("v", 0)

    def test_remove_missing_rejected(self):
        with pytest.raises(StorageError):
            Disk(0, 100.0).remove("v", 0)

    def test_fits_exact_capacity(self):
        disk = Disk(0, 100.0)
        assert disk.fits(100.0)
        assert not disk.fits(100.1)
