"""Sim-time telemetry sampling.

The :class:`TelemetrySampler` is a periodic simulator task (the same
primitive as the SNMP statistics modules) that snapshots every gauge —
and, optionally, every counter — registered in a
:class:`~repro.obs.registry.MetricsRegistry` and writes each snapshot,
as it takes it, as one ``sample`` row per instrument into the run's
sink (:attr:`TelemetrySampler.sink`), as the paper's statistics module
writes each SNMP sample into the database.  Readers read the sink.

Sampling on the simulated clock keeps runs deterministic: the timeline a
run exports depends only on the seed and schedule, never on wall-clock
speed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.registry import Instrument, MetricsRegistry
from repro.obs.sink import MemoryTelemetrySink, SampleWriter, TelemetrySink
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTask

#: Default sampling period: one minute of simulated time, the same order
#: as the paper's SNMP statistics period.
DEFAULT_SAMPLE_PERIOD_S = 60.0


class TelemetrySampler:
    """Periodically writes registry instruments into the run's sink.

    Args:
        sim: The simulation engine driving the period.
        registry: The instrument catalog to sample.  A disabled registry
            yields no rows (and :meth:`start` is then a no-op).
        period_s: Simulated seconds between samples.
        sample_counters: Also record cumulative counter values each
            round, giving rate-over-time views of e.g. VRA decisions.

    Attributes:
        sink: The run's one telemetry sink: every ``sample`` row goes
            here when it is taken, and the service writes each session
            span here when it closes.  An unbounded
            :class:`~repro.obs.sink.MemoryTelemetrySink` by default (None
            on a disabled registry);
            :class:`~repro.obs.stream.StreamingTelemetry` points it at
            its own sink.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: MetricsRegistry,
        period_s: float = DEFAULT_SAMPLE_PERIOD_S,
        sample_counters: bool = True,
    ):
        if not (period_s > 0.0):
            raise ReproError(f"sample period must be positive, got {period_s!r}")
        self._sim = sim
        self._registry = registry
        self._sample_counters = sample_counters
        self.sink: Optional[TelemetrySink] = (
            MemoryTelemetrySink() if registry.enabled else None
        )
        #: The sampling plan: (instrument, its series' row writer) in
        #: sampling order, valid while the registry holds ``_planned_for``
        #: instruments and the sink is ``_planned_sink``.
        self._plan: List[Tuple[Instrument, SampleWriter]] = []
        self._planned_for = -1
        self._planned_sink: Optional[TelemetrySink] = None
        self._task = PeriodicTask(sim, period_s, self.sample, name="telemetry")

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

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def sample(self) -> None:
        """Write one ``sample`` row per gauge (and counter), at sim-now.

        One tick costs O(instruments): it walks a cached plan of
        (instrument, row writer) pairs — gauges then counters, each
        sorted by (name, labels) — instead of sorting the registry.  The
        plan is rebuilt only when ``len(registry)`` or the sink changed,
        which is sound because a registry only ever gains instruments: an
        unchanged length means an unchanged catalog.
        """
        sink = self.sink
        if len(self._registry) != self._planned_for or sink is not self._planned_sink:
            instruments: List[Instrument] = list(self._registry.gauges())
            if self._sample_counters:
                instruments += self._registry.counters()
            self._plan = [
                (i, sink.sample_writer(i.name, i.label_dict())) for i in instruments
            ]
            self._planned_for = len(self._registry)
            self._planned_sink = sink
        now = float(self._sim.now)
        for instrument, write in self._plan:
            write(now, float(instrument.value))
