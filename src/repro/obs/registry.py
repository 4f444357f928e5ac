"""Metrics registry: Counter / Gauge / Histogram instruments.

Instruments are identified by a *family* name (``"link.utilization"``)
plus a frozen label set (``link="Athens-Patra"``); asking the registry
for the same (name, labels) pair twice returns the same instrument, so
callers can resolve instruments eagerly and keep only the hot-path call
(``counter.inc()``, ``histogram.observe(x)``) in loops.

A registry constructed with ``enabled=False`` hands out shared no-op
instruments and records nothing; the disabled hot path is a single
method call on a singleton (``tests/obs/test_service_obs.py::TestDisabled``
holds a disabled service to zero registered instruments).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError

#: Canonical immutable label representation: sorted (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Optional[Dict[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Common identity of every instrument.

    Attributes:
        name: Family name, dotted by convention (``"vra.decisions"``).
        subsystem: Owning subsystem label (``"network"``, ``"server"``).
        labels: Frozen (key, value) pairs distinguishing this instrument
            within its family.
        description: One-line human description for catalogs.
    """

    __slots__ = ("name", "subsystem", "labels", "description")

    kind = "instrument"

    def __init__(
        self,
        name: str,
        subsystem: str = "",
        labels: LabelSet = (),
        description: str = "",
    ):
        self.name = name
        self.subsystem = subsystem
        self.labels = labels
        self.description = description

    def label_dict(self) -> Dict[str, str]:
        """Labels as a plain dict (for export rows)."""
        return dict(self.labels)


class Counter(Instrument):
    """Monotonically increasing count."""

    __slots__ = ("_value",)

    kind = "counter"

    def __init__(self, name: str, subsystem: str = "", labels: LabelSet = (), description: str = ""):
        super().__init__(name, subsystem, labels, description)
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0.0:
            raise ReproError(f"counter {self.name!r} cannot decrease (inc {amount!r})")
        self._value += amount


class Gauge(Instrument):
    """Point-in-time value observed via a callback (0.0 without one)."""

    __slots__ = ("_callback",)

    kind = "gauge"

    def __init__(
        self,
        name: str,
        subsystem: str = "",
        labels: LabelSet = (),
        description: str = "",
        callback: Optional[Callable[[], float]] = None,
    ):
        super().__init__(name, subsystem, labels, description)
        self._callback = callback

    @property
    def value(self) -> float:
        """Current value: the callback's, evaluated now."""
        return float(self._callback()) if self._callback is not None else 0.0


class Histogram(Instrument):
    """Streaming distribution: count/sum/min/max plus a sample ring.

    The ring keeps the most recent ``ring_size`` observations so
    percentile summaries stay cheap and bounded on long runs.
    """

    __slots__ = ("count", "total", "min", "max", "_ring", "_ring_size", "_ring_pos", "_sorted")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        subsystem: str = "",
        labels: LabelSet = (),
        description: str = "",
        ring_size: int = 1024,
    ):
        super().__init__(name, subsystem, labels, description)
        if ring_size < 1:
            raise ReproError(f"histogram ring size must be >= 1, got {ring_size}")
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._ring: List[float] = []
        self._ring_size = ring_size
        self._ring_pos = 0
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._ring) < self._ring_size:
            self._ring.append(value)
        else:
            self._ring[self._ring_pos] = value
            self._ring_pos = (self._ring_pos + 1) % self._ring_size
        self._sorted = None

    @property
    def mean(self) -> float:
        """Mean over every observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained ring (0.0 when empty).

        The sorted ring is cached between observations, so rendering a
        summary with several percentiles sorts at most once per
        ``observe()``.
        """
        if not self._ring:
            return 0.0
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._ring)
        rank = max(int(len(ordered) * p / 100.0 + 0.999999) - 1, 0)
        return ordered[min(rank, len(ordered) - 1)]

    def summary(self) -> Dict[str, float]:
        """count / mean / min / max / p50 / p95 snapshot."""
        if not self.count:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
        }


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by disabled registries."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 - hot no-op
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:  # noqa: D102 - hot no-op
        pass


#: The singletons every disabled registry hands out.
NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = Gauge("null")
NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Get-or-create factory and catalog for instruments.

    Args:
        enabled: A disabled registry returns the shared no-op singletons
            (:data:`NULL_COUNTER` and friends) and registers nothing —
            instrumented code needs no ``if`` guards on its hot paths.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: Dict[Tuple[str, str, LabelSet], Instrument] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    # ------------------------------------------------------------------ #
    # factories
    # ------------------------------------------------------------------ #
    def counter(
        self,
        name: str,
        subsystem: str = "",
        labels: Optional[Dict[str, str]] = None,
        description: str = "",
    ) -> Counter:
        """Get or create a counter (the no-op singleton when disabled)."""
        if not self.enabled:
            return NULL_COUNTER
        return self._get_or_create(
            Counter, name, subsystem, _freeze_labels(labels), description
        )

    def gauge(
        self,
        name: str,
        subsystem: str = "",
        labels: Optional[Dict[str, str]] = None,
        description: str = "",
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        """Get or create a gauge; ``callback`` makes it observable."""
        if not self.enabled:
            return NULL_GAUGE
        key = ("gauge", name, _freeze_labels(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            return existing  # type: ignore[return-value]
        gauge = Gauge(name, subsystem, key[2], description, callback=callback)
        self._instruments[key] = gauge
        return gauge

    def histogram(
        self,
        name: str,
        subsystem: str = "",
        labels: Optional[Dict[str, str]] = None,
        description: str = "",
    ) -> Histogram:
        """Get or create a histogram (the no-op singleton when disabled)."""
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._get_or_create(
            Histogram, name, subsystem, _freeze_labels(labels), description
        )

    def _get_or_create(self, cls, name: str, subsystem: str, labels: LabelSet, description: str):
        key = (cls.kind, name, labels)
        existing = self._instruments.get(key)
        if existing is not None:
            return existing
        instrument = cls(name, subsystem, labels, description)
        self._instruments[key] = instrument
        return instrument

    # ------------------------------------------------------------------ #
    # catalog
    # ------------------------------------------------------------------ #
    def instruments(self, kind: Optional[str] = None) -> List[Instrument]:
        """Every registered instrument, optionally filtered by kind."""
        values: Iterable[Instrument] = self._instruments.values()
        if kind is not None:
            values = (i for i in values if i.kind == kind)
        return sorted(values, key=lambda i: (i.name, i.labels))

    def counters(self) -> List[Counter]:
        """Registered counters, sorted by (name, labels)."""
        return self.instruments("counter")  # type: ignore[return-value]

    def gauges(self) -> List[Gauge]:
        """Registered gauges, sorted by (name, labels)."""
        return self.instruments("gauge")  # type: ignore[return-value]

    def histograms(self) -> List[Histogram]:
        """Registered histograms, sorted by (name, labels)."""
        return self.instruments("histogram")  # type: ignore[return-value]

    def families(self) -> List[str]:
        """Distinct instrument family names, sorted."""
        return sorted({name for (_, name, _) in self._instruments})
