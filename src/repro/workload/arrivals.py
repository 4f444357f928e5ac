"""Request arrival processes.

:class:`PoissonArrivals` generates exponential inter-arrival gaps (the
standard model for independent viewers).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.errors import WorkloadError


class PoissonArrivals:
    """Poisson arrival process with a fixed mean rate.

    Args:
        rate_per_s: Mean arrivals per simulated second.
        rng: Random stream for reproducibility.
    """

    def __init__(self, rate_per_s: float, rng: Optional[random.Random] = None):
        if not (rate_per_s > 0.0):
            raise WorkloadError(f"arrival rate must be positive, got {rate_per_s!r}")
        self.rate_per_s = rate_per_s
        self._rng = rng if rng is not None else random.Random(0)

    def next_gap(self) -> float:
        """One exponential inter-arrival gap in seconds."""
        return self._rng.expovariate(self.rate_per_s)

    def times_until(self, horizon_s: float, start: float = 0.0) -> List[float]:
        """All arrival instants in (start, horizon_s].

        Raises:
            WorkloadError: If the horizon precedes the start.
        """
        if horizon_s < start:
            raise WorkloadError(
                f"horizon {horizon_s} precedes start {start}"
            )
        times: List[float] = []
        t = start
        while True:
            t += self.next_gap()
            if t > horizon_s:
                break
            times.append(t)
        return times
