"""Synthetic video-catalog generation.

The paper's servers hold "video titles" of feature-film scale.  The
generator produces titles with configurable size/duration ranges — defaults
are MPEG-1-era movies (~1-2 GB, 90-120 minutes), matching the 2000-vintage
deployment the paper targets.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.errors import WorkloadError
from repro.storage.video import VideoTitle


class CatalogGenerator:
    """Generates reproducible synthetic catalogs.

    Args:
        rng: Random stream.
        min_size_mb / max_size_mb: Title size range.
        min_duration_s / max_duration_s: Title duration range.
    """

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        min_size_mb: float = 800.0,
        max_size_mb: float = 2_000.0,
        min_duration_s: float = 80 * 60.0,
        max_duration_s: float = 130 * 60.0,
    ):
        if not (0.0 < min_size_mb <= max_size_mb):
            raise WorkloadError(
                f"invalid size range [{min_size_mb}, {max_size_mb}]"
            )
        if not (0.0 < min_duration_s <= max_duration_s):
            raise WorkloadError(
                f"invalid duration range [{min_duration_s}, {max_duration_s}]"
            )
        self._rng = rng if rng is not None else random.Random(0)
        self._min_size = min_size_mb
        self._max_size = max_size_mb
        self._min_duration = min_duration_s
        self._max_duration = max_duration_s

    def generate(self, count: int, prefix: str = "title") -> List[VideoTitle]:
        """Produce ``count`` titles named ``{prefix}-001`` onward, in
        popularity-rank order (rank 1 first, for direct use with
        :class:`~repro.workload.zipf.ZipfSampler`).

        Raises:
            WorkloadError: If ``count`` is not positive.
        """
        if count < 1:
            raise WorkloadError(f"catalog count must be >= 1, got {count}")
        width = max(3, len(str(count)))
        titles = []
        for rank in range(1, count + 1):
            size = self._rng.uniform(self._min_size, self._max_size)
            duration = self._rng.uniform(self._min_duration, self._max_duration)
            titles.append(
                VideoTitle(
                    title_id=f"{prefix}-{rank:0{width}d}",
                    name=f"{prefix.title()} #{rank}",
                    size_mb=round(size, 1),
                    duration_s=round(duration, 1),
                )
            )
        return titles
