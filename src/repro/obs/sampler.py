"""Sim-time telemetry sampling.

The :class:`TelemetrySampler` is a periodic simulator task (the same
primitive as the SNMP statistics modules) that snapshots every gauge —
and, optionally, every counter — registered in a
:class:`~repro.obs.registry.MetricsRegistry` into ring-buffered
:class:`~repro.metrics.timeseries.TimeSeries`, one per instrument.

Sampling on the simulated clock keeps runs deterministic: the timeline a
run exports depends only on the seed and schedule, never on wall-clock
speed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.metrics.timeseries import TimeSeries
from repro.obs.registry import Instrument, LabelSet, MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTask

#: Default sampling period: one minute of simulated time, the same order
#: as the paper's SNMP statistics period.
DEFAULT_SAMPLE_PERIOD_S = 60.0

#: Default ring bound per series: a full simulated day at the default
#: period, which keeps even week-long soak runs bounded.
DEFAULT_SERIES_CAPACITY = 1440

#: A series is keyed by its instrument's (family name, frozen labels).
SeriesKey = Tuple[str, LabelSet]

#: Spill callback signature: (family name, labels, dropped times, values).
SpillCallback = Callable[[str, Dict[str, str], List[float], List[float]], None]


class TelemetrySampler:
    """Periodically snapshots registry instruments into time series.

    Args:
        sim: The simulation engine driving the period.
        registry: The instrument catalog to sample.  A disabled registry
            yields no series (and :meth:`start` is then a no-op).
        period_s: Simulated seconds between samples.
        capacity: Ring bound per series (oldest samples dropped first).
        sample_counters: Also record cumulative counter values each
            round, giving rate-over-time views of e.g. VRA decisions.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: MetricsRegistry,
        period_s: float = DEFAULT_SAMPLE_PERIOD_S,
        capacity: int = DEFAULT_SERIES_CAPACITY,
        sample_counters: bool = True,
    ):
        if not (period_s > 0.0):
            raise ReproError(f"sample period must be positive, got {period_s!r}")
        self._sim = sim
        self._registry = registry
        self._capacity = capacity
        self._sample_counters = sample_counters
        self._series: Dict[SeriesKey, TimeSeries] = {}
        #: The sampling plan: (instrument, its series) in sampling order,
        #: valid while the registry holds ``_planned_for`` instruments.
        self._plan: List[Tuple[Instrument, TimeSeries]] = []
        self._planned_for = -1
        self._resident = 0
        self._spill: Optional[SpillCallback] = None
        self._task = PeriodicTask(sim, period_s, self.sample, name="telemetry")

    @property
    def sample_count(self) -> int:
        """Sampling rounds taken so far."""
        return self._task.fire_count

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Take one immediate sample and begin periodic sampling."""
        if not self._registry.enabled:
            return
        if not self._task.running:
            self.sample()
            self._task.start()

    def stop(self) -> None:
        """Stop periodic sampling (recorded series are kept)."""
        if self._task.running:
            self._task.stop()

    def set_spill(self, callback: Optional[SpillCallback]) -> None:
        """Route ring overflow to ``callback`` instead of discarding it.

        The callback receives ``(family, labels, times, values)`` for every
        batch of samples the capacity bound is about to evict — for every
        existing series and every series created later.  Pass None to
        restore the default drop-oldest behaviour.
        """
        self._spill = callback
        for (name, labels), series in self._series.items():
            series.on_drop = self._spill_hook(name, labels) if callback else None

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def sample(self) -> None:
        """Snapshot every gauge (and counter) into its series, at sim-now.

        One tick costs O(instruments): it walks a cached plan of
        (instrument, series) pairs — gauges then counters, each sorted by
        (name, labels) — instead of sorting the registry.  The plan is
        rebuilt only when ``len(registry)`` changed, which is sound
        because a registry only ever gains instruments: an unchanged
        length means an unchanged catalog.
        """
        if len(self._registry) != self._planned_for:
            instruments: List[Instrument] = list(self._registry.gauges())
            if self._sample_counters:
                instruments += self._registry.counters()
            self._plan = [(i, self._series_for(i)) for i in instruments]
            self._planned_for = len(self._registry)
        now = self._sim.now
        for instrument, series in self._plan:
            held = len(series)
            series.record(now, instrument.value)
            self._resident += len(series) - held

    def _series_for(self, instrument: Instrument) -> TimeSeries:
        key = (instrument.name, instrument.labels)
        series = self._series.get(key)
        if series is None:
            label_text = ",".join(f"{k}={v}" for k, v in instrument.labels)
            series = TimeSeries(
                name=f"{instrument.name}{{{label_text}}}" if label_text else instrument.name,
                capacity=self._capacity,
            )
            if self._spill is not None:
                series.on_drop = self._spill_hook(key[0], key[1])
            self._series[key] = series
        return series

    def _spill_hook(self, name: str, labels: LabelSet):
        label_dict = dict(labels)

        def hook(times: List[float], values: List[float]) -> None:
            if self._spill is not None:
                self._spill(name, label_dict, times, values)

        return hook

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def series(self) -> Dict[SeriesKey, TimeSeries]:
        """Every recorded series, keyed by (family name, frozen labels)."""
        return dict(self._series)

    def resident_samples(self) -> int:
        """Samples currently held in rings (the sampler's live footprint).

        A running count kept by :meth:`sample` (ring appends minus
        evictions), so reading it is O(1) however many series exist.
        """
        return self._resident

    def series_for(self, name: str) -> List[Tuple[Dict[str, str], TimeSeries]]:
        """All series of one family as (labels, series) pairs, sorted."""
        found = [
            (dict(labels), series)
            for (family, labels), series in self._series.items()
            if family == name
        ]
        return sorted(found, key=lambda pair: tuple(sorted(pair[0].items())))

    def families(self) -> List[str]:
        """Distinct family names with at least one recorded series."""
        return sorted({family for family, _ in self._series})

    def get(self, name: str, labels: Optional[Dict[str, str]] = None) -> Optional[TimeSeries]:
        """One series by family name and exact labels, or None."""
        frozen: LabelSet = tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))
        return self._series.get((name, frozen))
