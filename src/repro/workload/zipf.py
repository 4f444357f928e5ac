"""Zipf popularity distribution over a title catalog.

VoD request popularity is classically modelled as Zipf with exponent
``s`` around 0.7-1.1 (video rental and early VoD trace studies): the
k-th most popular of N titles is requested with probability proportional
to ``1 / k**s``.  The DMA's "most popular" concept is exactly a bet that
this skew exists, so the comparison benches sweep ``s``.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, Optional, Sequence

from repro.errors import WorkloadError


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    """Normalised Zipf probabilities for ranks 1..n.

    Args:
        n: Number of ranks (catalog size).
        exponent: The Zipf skew ``s``; 0 gives a uniform distribution.

    Raises:
        WorkloadError: If ``n`` is not positive or ``exponent`` is negative.
    """
    if n < 1:
        raise WorkloadError(f"catalog size must be >= 1, got {n}")
    if exponent < 0.0:
        raise WorkloadError(f"Zipf exponent must be >= 0, got {exponent!r}")
    raw = [1.0 / (rank**exponent) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class ZipfSampler:
    """Samples items by Zipf rank, deterministically under a given RNG.

    Args:
        items: The catalog in rank order (index 0 = most popular).
        exponent: Zipf skew.
        rng: Random stream (use :class:`repro.sim.rng.RngRegistry` streams
            for reproducibility).
    """

    def __init__(
        self,
        items: Sequence[str],
        exponent: float = 1.0,
        rng: Optional[random.Random] = None,
    ):
        if not items:
            raise WorkloadError("ZipfSampler needs a non-empty item list")
        self._items = list(items)
        self._rng = rng if rng is not None else random.Random(0)
        weights = zipf_weights(len(self._items), exponent)
        self._cumulative = list(itertools.accumulate(weights))
        # Guard the final bucket against float dust.
        self._cumulative[-1] = 1.0

    def probability_of_rank(self, rank: int) -> float:
        """Request probability of the item at 1-based ``rank``."""
        if not (1 <= rank <= len(self._items)):
            raise WorkloadError(
                f"rank {rank} out of range 1..{len(self._items)}"
            )
        previous = self._cumulative[rank - 2] if rank >= 2 else 0.0
        return self._cumulative[rank - 1] - previous

    def sample(self) -> str:
        """Draw one item."""
        u = self._rng.random()
        index = bisect.bisect_left(self._cumulative, u)
        index = min(index, len(self._items) - 1)
        return self._items[index]

    def sample_many(self, count: int) -> List[str]:
        """Draw ``count`` items."""
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        return [self.sample() for _ in range(count)]
