"""Single-disk model.

A :class:`Disk` holds video clusters up to a fixed capacity.  It only does
space accounting — bandwidth/seek behaviour is outside the paper's model,
which reasons purely about *capacity-oriented* storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import StorageError


@dataclass(frozen=True)
class StoredCluster:
    """One cluster resident on a disk.

    Attributes:
        title_id: Video the cluster belongs to.
        cluster_index: 0-based index of the cluster within the video.
        size_mb: Cluster size in MB (the tail cluster may be partial).
    """

    title_id: str
    cluster_index: int
    size_mb: float


class Disk:
    """A fixed-capacity disk storing video clusters."""

    def __init__(self, disk_index: int, capacity_mb: float):
        if not (capacity_mb > 0.0):
            raise StorageError(f"disk capacity must be positive, got {capacity_mb!r}")
        self.disk_index = disk_index
        self.capacity_mb = float(capacity_mb)
        self._clusters: Dict[Tuple[str, int], StoredCluster] = {}
        self._used_mb = 0.0

    @property
    def used_mb(self) -> float:
        """Megabytes currently stored."""
        return self._used_mb

    @property
    def free_mb(self) -> float:
        """Spare capacity in megabytes."""
        return max(self.capacity_mb - self._used_mb, 0.0)

    def fits(self, size_mb: float) -> bool:
        """True if a cluster of ``size_mb`` fits in the spare capacity."""
        return size_mb <= self.free_mb + 1e-9

    def store(self, cluster: StoredCluster) -> None:
        """Store one cluster.

        Raises:
            StorageError: On overflow or duplicate (title, index) pairs.
        """
        key = (cluster.title_id, cluster.cluster_index)
        if key in self._clusters:
            raise StorageError(
                f"disk {self.disk_index}: cluster {key} already stored"
            )
        if not self.fits(cluster.size_mb):
            raise StorageError(
                f"disk {self.disk_index}: cluster of {cluster.size_mb:.2f} MB "
                f"does not fit in {self.free_mb:.2f} MB free"
            )
        self._clusters[key] = cluster
        self._used_mb += cluster.size_mb

    def remove(self, title_id: str, cluster_index: int) -> StoredCluster:
        """Remove one cluster and reclaim its space.

        Raises:
            StorageError: If the cluster is not on this disk.
        """
        key = (title_id, cluster_index)
        cluster = self._clusters.pop(key, None)
        if cluster is None:
            raise StorageError(f"disk {self.disk_index}: no cluster {key}")
        self._used_mb = max(self._used_mb - cluster.size_mb, 0.0)
        return cluster
