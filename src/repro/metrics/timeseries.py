"""Append-only time series with integration helpers.

Used to record link utilisation over a run: samples are (time, value)
pairs; :meth:`time_average` integrates the piecewise-constant signal, which
is the right mean for utilisation-style metrics.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ReproError


class TimeSeries:
    """(time, value) samples, times non-decreasing.

    Args:
        name: Label used in error messages and exports.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def record(self, time: float, value: float) -> None:
        """Append one sample.

        Raises:
            ReproError: If ``time`` precedes the previous sample.
        """
        if self._times and time < self._times[-1]:
            raise ReproError(
                f"time series {self.name!r}: sample at {time} precedes "
                f"previous sample at {self._times[-1]}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def samples(self) -> List[Tuple[float, float]]:
        """All samples as (time, value) pairs."""
        return list(zip(self._times, self._values))

    def values(self) -> List[float]:
        """Just the sample values."""
        return list(self._values)

    def time_average(self, until: Optional[float] = None) -> float:
        """Time-weighted mean of the piecewise-constant signal.

        Args:
            until: Horizon for the integral; defaults to the last sample
                time (a single-sample series returns that sample).

        Raises:
            ReproError: On an empty series or a horizon before the first
                sample.
        """
        if not self._times:
            raise ReproError(f"time series {self.name!r} is empty")
        horizon = self._times[-1] if until is None else until
        if horizon < self._times[0]:
            raise ReproError(
                f"horizon {horizon} precedes first sample at {self._times[0]}"
            )
        if horizon == self._times[0]:
            return self._values[0]
        area = 0.0
        for i in range(len(self._times)):
            start = self._times[i]
            end = self._times[i + 1] if i + 1 < len(self._times) else horizon
            end = min(end, horizon)
            if end > start:
                area += self._values[i] * (end - start)
            if end >= horizon:
                break
        return area / (horizon - self._times[0])

    def maximum(self) -> float:
        """Largest sample value.

        Raises:
            ReproError: On an empty series.
        """
        if not self._values:
            raise ReproError(f"time series {self.name!r} is empty")
        return max(self._values)
