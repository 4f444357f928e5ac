"""Small, dependency-free summary statistics.

Implemented directly (rather than via numpy) so property tests can verify
them against first principles and so the metrics layer stays importable in
minimal environments.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ReproError


def _require_data(values: Sequence[float], what: str) -> None:
    if not values:
        raise ReproError(f"cannot compute {what} of an empty sequence")


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean.

    Raises:
        ReproError: On empty input.
    """
    _require_data(values, "mean")
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100].

    Raises:
        ReproError: On empty input or out-of-range ``q``.
    """
    _require_data(values, "percentile")
    if not (0.0 <= q <= 100.0):
        raise ReproError(f"percentile must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction
