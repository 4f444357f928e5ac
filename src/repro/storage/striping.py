"""Data-striping placement math (paper section "The algorithm", Figure 3).

The paper fixes a common cluster size of ``c`` MB so a video of size ``s``
splits into ``p = s / c`` parts (we take the ceiling so the tail bytes are
not lost), then distributes the parts cyclically: with ``n`` disks,

* if ``n > p``: one part on each of the first ``p`` disks;
* if ``n <= p``: parts 1..n on disks 1..n, then the remaining ``p - n``
  parts wrap around "starting from disk 1 and reusing as many of them as
  needed".

Both regimes are the single rule ``part i -> disk i mod n``, which is what
:func:`striping_layout` returns and the property tests verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import StripingError


def cluster_count(size_mb: float, cluster_mb: float) -> int:
    """Number of clusters ``p`` for a video of ``size_mb`` at cluster size
    ``cluster_mb`` (the paper's ``p = size / c``, rounded up).

    Raises:
        StripingError: If either argument is not positive.
    """
    if not (size_mb > 0.0):
        raise StripingError(f"video size must be positive, got {size_mb!r}")
    if not (cluster_mb > 0.0):
        raise StripingError(f"cluster size must be positive, got {cluster_mb!r}")
    return max(1, math.ceil(size_mb / cluster_mb - 1e-9))


def cluster_sizes(size_mb: float, cluster_mb: float) -> List[float]:
    """Per-cluster sizes in MB; all ``c`` except a possibly-smaller tail."""
    p = cluster_count(size_mb, cluster_mb)
    sizes = [min(cluster_mb, size_mb - i * cluster_mb) for i in range(p)]
    # The tail takes the float dust cluster_count's rounding leaves (it may
    # exceed c by a hair).  It is positive: p - 1 < size / c - 1e-9, a margin
    # float error reaches only past ~10^7 clusters.
    sizes[-1] = max(sizes[-1], size_mb - (p - 1) * cluster_mb)
    return sizes


def striping_layout(part_count: int, disk_count: int) -> List[int]:
    """Disk index for every part, cyclic from disk 0.

    Args:
        part_count: Number of clusters ``p``.
        disk_count: Number of disks ``n``.

    Returns:
        ``layout[i]`` is the 0-based disk holding part ``i``.

    Raises:
        StripingError: If either count is not positive.
    """
    if part_count < 1:
        raise StripingError(f"part count must be >= 1, got {part_count}")
    if disk_count < 1:
        raise StripingError(f"disk count must be >= 1, got {disk_count}")
    return [i % disk_count for i in range(part_count)]


@dataclass(frozen=True)
class StripingLayout:
    """The complete placement of one video across a disk array.

    Attributes:
        title_id: The striped video.
        cluster_mb: Common cluster size ``c``.
        assignments: Tuple of (cluster index, disk index, cluster MB).
    """

    title_id: str
    cluster_mb: float
    assignments: Tuple[Tuple[int, int, float], ...]

    @classmethod
    def for_video(cls, title_id: str, size_mb: float, cluster_mb: float, disk_count: int) -> "StripingLayout":
        """Compute the layout for a video on ``disk_count`` disks."""
        sizes = cluster_sizes(size_mb, cluster_mb)
        disks = striping_layout(len(sizes), disk_count)
        return cls(
            title_id=title_id,
            cluster_mb=cluster_mb,
            assignments=tuple(
                (index, disk, size) for index, (disk, size) in enumerate(zip(disks, sizes))
            ),
        )

    @property
    def cluster_count(self) -> int:
        """Number of clusters ``p``."""
        return len(self.assignments)

    def disk_of(self, cluster_index: int) -> int:
        """Disk holding one cluster.

        Raises:
            StripingError: If the index is out of range.
        """
        if not (0 <= cluster_index < len(self.assignments)):
            raise StripingError(
                f"cluster index {cluster_index} out of range for "
                f"{len(self.assignments)} clusters"
            )
        return self.assignments[cluster_index][1]

    def clusters_on_disk(self, disk_index: int) -> List[int]:
        """Cluster indices placed on one disk, ascending."""
        return [index for index, disk, _ in self.assignments if disk == disk_index]

    def per_disk_mb(self) -> Dict[int, float]:
        """Megabytes this video occupies on each disk it touches."""
        usage: Dict[int, float] = {}
        for _, disk, size in self.assignments:
            usage[disk] = usage.get(disk, 0.0) + size
        return usage

    def total_mb(self) -> float:
        """Total stored megabytes (equals the video size)."""
        return sum(size for _, _, size in self.assignments)
