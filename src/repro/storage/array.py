"""Disk array with cyclic striping (the paper's Figure 3 architecture).

A :class:`DiskArray` owns ``n`` equal disks and a common cluster size ``c``.
Storing a video computes its :class:`~repro.storage.striping.StripingLayout`
and places every cluster atomically — a video is either fully resident or
absent, which is the invariant the DMA's "Disks can tolerate the Video"
check relies on.

Fraction-aware placement policies (prefix replication, popularity-weighted
partial caching) additionally store *leading segments*: the first ``k``
clusters of a video's layout, tracked separately from full residents
(:meth:`store_segment` / :meth:`resident_fraction`).  A segment that grows
to cover every cluster is promoted to an ordinary full resident in place.
The whole-title API (:meth:`has_video`, :meth:`stored_title_ids`,
:meth:`is_servable`) keeps meaning *fully* resident, so the DMA's
reasoning is untouched by partial residency; :meth:`cluster_servable`
answers for one cluster of either.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set

from repro.errors import StorageError, StripingError
from repro.storage.disk import Disk, StoredCluster
from repro.storage.striping import StripingLayout
from repro.storage.video import VideoTitle


class DiskArray:
    """``n`` disks of equal capacity behind one striping policy.

    ``on_change(disk_failed)`` is called whenever servability can move
    (store, remove, disk failure or restore; ``disk_failed`` is True for
    a death), and its server publishes it.
    """

    def __init__(
        self, disk_count: int, disk_capacity_mb: float, cluster_mb: float,
        on_change: Optional[Callable[[bool], None]] = None,
    ):
        if disk_count < 1:
            raise StripingError(f"disk count must be >= 1, got {disk_count}")
        if not (cluster_mb > 0.0):
            raise StripingError(f"cluster size must be positive, got {cluster_mb!r}")
        if not (disk_capacity_mb > 0.0):
            raise StorageError(f"disk capacity must be positive, got {disk_capacity_mb!r}")
        self.cluster_mb = float(cluster_mb)
        self._disks = [Disk(i, disk_capacity_mb) for i in range(disk_count)]
        self._videos: Dict[str, VideoTitle] = {}
        self._layouts: Dict[str, StripingLayout] = {}
        #: Partially resident videos: title -> video / full layout /
        #: number of leading clusters resident.  Disjoint from
        #: ``_videos`` — promotion moves a title between the two.
        self._partials: Dict[str, VideoTitle] = {}
        self._partial_layouts: Dict[str, StripingLayout] = {}
        self._partial_counts: Dict[str, int] = {}
        self._failed_disks: Set[int] = set()
        self._on_change = on_change

    def _touch(self, disk_failed: bool = False) -> None:
        if self._on_change is not None:
            self._on_change(disk_failed)

    # ------------------------------------------------------------------ #
    # capacity
    # ------------------------------------------------------------------ #
    @property
    def disk_count(self) -> int:
        return len(self._disks)

    @property
    def total_capacity_mb(self) -> float:
        """Aggregate capacity across all disks."""
        return sum(d.capacity_mb for d in self._disks)

    @property
    def used_mb(self) -> float:
        """Aggregate used space across all disks."""
        return sum(d.used_mb for d in self._disks)

    def disk(self, index: int) -> Disk:
        """One disk by 0-based index.

        Raises:
            StorageError: If the index is out of range.
        """
        if not (0 <= index < len(self._disks)):
            raise StorageError(f"disk index {index} out of range 0..{len(self._disks) - 1}")
        return self._disks[index]

    # ------------------------------------------------------------------ #
    # disk failures (fault-injection surface)
    # ------------------------------------------------------------------ #
    def fail_disk(self, index: int) -> None:
        """Mark one disk failed.

        Cyclic striping spreads every multi-cluster video over all disks,
        so a failed disk typically makes most resident titles unservable
        (:meth:`is_servable`) until :meth:`restore_disk`.  The clusters
        themselves are kept — the model treats recovery as a disk swap
        plus resync, after which the title serves again.  Idempotent.

        Raises:
            StorageError: If the index is out of range.
        """
        self.disk(index)  # range check
        self._failed_disks.add(index)
        self._touch(disk_failed=True)

    def restore_disk(self, index: int) -> None:
        """Bring a failed disk back into service.  Idempotent.

        Raises:
            StorageError: If the index is out of range.
        """
        self.disk(index)  # range check
        self._failed_disks.discard(index)
        self._touch()

    def is_servable(self, title_id: str) -> bool:
        """True when the video is resident and touches no failed disk.

        A video with any cluster on a failed disk cannot be streamed; one
        laid out entirely on surviving disks still can.  With no failed
        disks this is exactly :meth:`has_video`.
        """
        if title_id not in self._videos:
            return False
        if not self._failed_disks:
            return True
        return all(
            disk_index not in self._failed_disks
            for _, disk_index, _ in self._layouts[title_id].assignments
        )

    # ------------------------------------------------------------------ #
    # videos
    # ------------------------------------------------------------------ #
    def layout_for(self, video: VideoTitle) -> StripingLayout:
        """The striping layout storing ``video`` would use."""
        return StripingLayout.for_video(
            video.title_id, video.size_mb, self.cluster_mb, self.disk_count
        )

    def can_store(self, video: VideoTitle) -> bool:
        """The DMA's "Disks can tolerate the Video" predicate: every disk has
        room for its share of the video's clusters."""
        if video.title_id in self._videos or video.title_id in self._partials:
            return False
        layout = self.layout_for(video)
        for disk_index, needed_mb in layout.per_disk_mb().items():
            if disk_index in self._failed_disks:
                return False
            if needed_mb > self._disks[disk_index].free_mb + 1e-9:
                return False
        return True

    def store(self, video: VideoTitle) -> StripingLayout:
        """Stripe a video onto the disks ("Write Video to Disks").

        Raises:
            StorageError: If the video is already stored or does not fit;
                on failure no cluster is left behind.
        """
        if video.title_id in self._videos:
            raise StorageError(f"video {video.title_id!r} is already stored")
        if video.title_id in self._partials:
            raise StorageError(
                f"video {video.title_id!r} has a partial segment resident; "
                f"extend it with store_segment instead"
            )
        if not self.can_store(video):
            raise StorageError(
                f"video {video.title_id!r} ({video.size_mb:.1f} MB) does not "
                f"fit on the array (free={self.total_capacity_mb - self.used_mb:.1f} MB)"
            )
        layout = self.layout_for(video)
        for cluster_index, disk_index, size_mb in layout.assignments:
            self._disks[disk_index].store(
                StoredCluster(video.title_id, cluster_index, size_mb)
            )
        self._videos[video.title_id] = video
        self._layouts[video.title_id] = layout
        self._touch()
        return layout

    def remove(self, title_id: str) -> VideoTitle:
        """Remove a video and all its clusters ("Delete Least Popular Video").

        Raises:
            StorageError: If the video is not stored.
        """
        video = self._videos.pop(title_id, None)
        if video is not None:
            layout = self._layouts.pop(title_id)
            for cluster_index, disk_index, _ in layout.assignments:
                self._disks[disk_index].remove(title_id, cluster_index)
            self._touch()
            return video
        video = self._partials.pop(title_id, None)
        if video is None:
            raise StorageError(f"video {title_id!r} is not stored on this array")
        layout = self._partial_layouts.pop(title_id)
        count = self._partial_counts.pop(title_id)
        for cluster_index, disk_index, _ in layout.assignments[:count]:
            self._disks[disk_index].remove(title_id, cluster_index)
        self._touch()
        return video

    def has_video(self, title_id: str) -> bool:
        """True if the full video is resident."""
        return title_id in self._videos

    def stored_title_ids(self) -> List[str]:
        """Ids of fully resident videos, sorted."""
        return sorted(self._videos)

    # ------------------------------------------------------------------ #
    # fractional segments (prefix / partial placement policies)
    # ------------------------------------------------------------------ #
    def _segment_cluster_count(self, video: VideoTitle, fraction: float) -> int:
        """Leading clusters needed to cover ``fraction`` of the video."""
        layout = self.layout_for(video)
        if fraction >= 1.0:
            return layout.cluster_count
        needed_mb = fraction * video.size_mb
        count = math.ceil(needed_mb / self.cluster_mb - 1e-9)
        return max(1, min(layout.cluster_count, count))

    def can_store_segment(self, video: VideoTitle, fraction: float) -> bool:
        """True when the leading segment covering ``fraction`` of the video
        fits (extending any already-resident prefix counts only the new
        clusters; a segment already that long fits).  Only the disk-fit
        question: :meth:`store_segment` refuses a fully stored title and a
        fraction outside (0, 1] before it asks."""
        target = self._segment_cluster_count(video, fraction)
        current = self._partial_counts.get(video.title_id, 0)
        layout = (
            self._partial_layouts.get(video.title_id) or self.layout_for(video)
        )
        needed: Dict[int, float] = {}
        for _, disk_index, size_mb in layout.assignments[current:target]:
            needed[disk_index] = needed.get(disk_index, 0.0) + size_mb
        for disk_index, needed_mb in needed.items():
            if disk_index in self._failed_disks:
                return False
            if needed_mb > self._disks[disk_index].free_mb + 1e-9:
                return False
        return True

    def store_segment(self, video: VideoTitle, fraction: float) -> float:
        """Store (or extend to) the leading segment covering ``fraction`` of
        the video; returns the resident fraction afterwards.

        A segment that reaches every cluster is promoted to an ordinary
        full resident (:meth:`has_video` becomes true).  Shrinking is not
        supported — a target at or below the current residency is a no-op.

        Raises:
            StorageError: If the video is already fully stored, the
                fraction is out of (0, 1], or the new clusters do not fit;
                on failure no new cluster is left behind.
        """
        title_id = video.title_id
        if title_id in self._videos:
            raise StorageError(f"video {title_id!r} is already fully stored")
        if not (0.0 < fraction <= 1.0):
            raise StorageError(
                f"segment fraction must be in (0, 1], got {fraction!r}"
            )
        target = self._segment_cluster_count(video, fraction)
        current = self._partial_counts.get(title_id, 0)
        if target > current:
            if not self.can_store_segment(video, fraction):
                raise StorageError(
                    f"segment of video {title_id!r} ({fraction:.3f} of "
                    f"{video.size_mb:.1f} MB) does not fit on the array "
                    f"(free={self.total_capacity_mb - self.used_mb:.1f} MB)"
                )
            layout = self._partial_layouts.get(title_id) or self.layout_for(video)
            for cluster_index, disk_index, size_mb in layout.assignments[
                current:target
            ]:
                self._disks[disk_index].store(
                    StoredCluster(title_id, cluster_index, size_mb)
                )
            if target == layout.cluster_count:
                # Promotion: every cluster is now resident — reclassify as
                # a full video without touching the disks again.
                self._partials.pop(title_id, None)
                self._partial_layouts.pop(title_id, None)
                self._partial_counts.pop(title_id, None)
                self._videos[title_id] = video
                self._layouts[title_id] = layout
                self._touch()
                return 1.0
            self._partials[title_id] = video
            self._partial_layouts[title_id] = layout
            self._partial_counts[title_id] = target
            self._touch()
            return _leading_share(video, layout, target)
        return self.resident_fraction(title_id)

    def resident_fraction(self, title_id: str) -> float:
        """Fraction of the video resident locally: 1.0 when fully stored,
        the stored-bytes share for a partial segment, 0.0 otherwise."""
        if title_id in self._videos:
            return 1.0
        video = self._partials.get(title_id)
        if video is None:
            return 0.0
        return _leading_share(
            video, self._partial_layouts[title_id], self._partial_counts[title_id]
        )

    def resident_title_ids(self) -> List[str]:
        """Ids with any residency — full or partial — sorted."""
        if not self._partials:
            return self.stored_title_ids()
        return sorted(set(self._videos) | set(self._partials))

    def cluster_servable(self, title_id: str, cluster_index: int) -> bool:
        """True when one specific cluster is resident on a healthy disk —
        the per-cluster question a partial holder answers."""
        if title_id in self._videos:
            layout = self._layouts[title_id]
            count = layout.cluster_count
        elif title_id in self._partials:
            layout = self._partial_layouts[title_id]
            count = self._partial_counts[title_id]
        else:
            return False
        if not (0 <= cluster_index < count):
            return False
        return layout.assignments[cluster_index][1] not in self._failed_disks


def _leading_share(video: VideoTitle, layout: StripingLayout, count: int) -> float:
    """The share of ``video`` its first ``count`` clusters hold."""
    resident_mb = sum(size for _, _, size in layout.assignments[:count])
    return min(1.0, resident_mb / video.size_mb)  # size_mb > 0: VideoTitle checks
