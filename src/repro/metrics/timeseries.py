"""Append-only time series with integration helpers.

Used to record link utilisation over a run: samples are (time, value)
pairs; :meth:`time_average` integrates the piecewise-constant signal, which
is the right mean for utilisation-style metrics.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import ReproError


class TimeSeries:
    """(time, value) samples, times non-decreasing.

    Args:
        name: Label used in error messages and exports.
        capacity: Optional ring bound — keep at most this many samples,
            dropping the oldest first (the telemetry sampler uses this so
            long runs stay bounded).  None keeps everything.
        on_drop: Optional callback invoked with the (times, values) lists
            about to be evicted by the capacity bound, letting a streaming
            sink spill them instead of losing them.  Dropped samples are
            still counted in :attr:`dropped_count`.
    """

    def __init__(
        self,
        name: str = "",
        capacity: Optional[int] = None,
        on_drop: Optional[Callable[[List[float], List[float]], None]] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ReproError(
                f"time series {name!r}: capacity must be >= 1, got {capacity!r}"
            )
        self.name = name
        self.capacity = capacity
        self.on_drop = on_drop
        self._times: List[float] = []
        self._values: List[float] = []
        self._dropped = 0

    def __len__(self) -> int:
        return len(self._times)

    @property
    def dropped_count(self) -> int:
        """Samples discarded due to the capacity bound."""
        return self._dropped

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
        if self.capacity is not None and len(self._times) > self.capacity:
            overflow = len(self._times) - self.capacity
            if self.on_drop is not None:
                self.on_drop(self._times[:overflow], self._values[:overflow])
            del self._times[:overflow]
            del self._values[:overflow]
            self._dropped += overflow

    def samples(self) -> List[Tuple[float, float]]:
        """All samples as (time, value) pairs."""
        return list(zip(self._times, self._values))

    def times(self) -> List[float]:
        """Just the sample times."""
        return list(self._times)

    def values(self) -> List[float]:
        """Just the sample values."""
        return list(self._values)

    def last(self) -> Optional[Tuple[float, float]]:
        """The most recent sample, or None when empty."""
        if not self._times:
            return None
        return (self._times[-1], self._values[-1])

    def value_at(self, time: float) -> float:
        """Piecewise-constant (sample-and-hold) value at ``time``.

        Raises:
            ReproError: If the series is empty or ``time`` precedes the
                first sample.
        """
        if not self._times:
            raise ReproError(f"time series {self.name!r} is empty")
        if time < self._times[0]:
            raise ReproError(
                f"time {time} precedes first sample at {self._times[0]}"
            )
        # Linear scan from the end: queries usually ask near the present.
        for i in range(len(self._times) - 1, -1, -1):
            if self._times[i] <= time:
                return self._values[i]
        raise AssertionError("unreachable: first-sample check covers this")

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
