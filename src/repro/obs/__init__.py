"""Unified telemetry layer.

Three cooperating pieces turn a service run into measurable telemetry:

* :mod:`repro.obs.registry` — a metrics registry handing out Counter /
  Gauge / Histogram instruments, labelled by subsystem.  A disabled
  registry returns shared no-op instruments, so instrumented hot paths
  cost one dynamic dispatch when observability is off (the enabled
  path's cost is the ``chaos_storm`` workload of ``benchmarks/ledger/``).
* :mod:`repro.obs.sampler` — a periodic simulator process snapshotting
  every registered gauge and writing each snapshot, when it takes it, as
  ``sample`` rows into the run's sink.
* :mod:`repro.obs.spans` — per-request session spans, the one trail of
  a request, written as one ``span`` row: its submission and DMA pass,
  one column entry per VRA decision (cost, routing epoch and the
  cluster it delivered, read from the session record), its failovers
  and the outcome.

Every row a run records reaches a file or memory through one
:class:`~repro.obs.sink.TelemetrySink` (JSONL, CSV or
:class:`~repro.obs.sink.MemoryTelemetrySink`) when it happens: each
sampler tick's ``sample`` rows and each closed span's ``span`` row,
written into the run's one sink (``service.telemetry.sink``, a memory
sink unless a :class:`~repro.obs.stream.StreamingTelemetry` points it at
its own); and the manifest, end-of-run rows
(:func:`~repro.obs.export.telemetry_rows`) and footer the streamer
writes.
:func:`~repro.obs.export.summarize_telemetry` reads a memory sink for the
``python -m repro obs`` CLI subcommand.
"""

from importlib import import_module
from typing import TYPE_CHECKING

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)
from repro.obs.sink import (
    CsvTelemetrySink,
    JsonlTelemetrySink,
    MemoryTelemetrySink,
    TelemetrySink,
    open_sink,
)
from repro.obs.spans import SessionSpan, SpanEvent

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.obs.export import summarize_telemetry, telemetry_rows
    from repro.obs.sampler import TelemetrySampler
    from repro.obs.stream import StreamingTelemetry, run_manifest

# The sampler (and through it the export module) depends on
# repro.metrics, whose package init reaches back into repro.core — a
# cycle if resolved while core.vra is importing repro.obs.registry.
# PEP 562 lazy attributes break the cycle: the heavy submodules load on
# first attribute access, after the core package finished initialising.
_LAZY = {
    "TelemetrySampler": "repro.obs.sampler",
    "summarize_telemetry": "repro.obs.export",
    "telemetry_rows": "repro.obs.export",
    "StreamingTelemetry": "repro.obs.stream",
    "run_manifest": "repro.obs.stream",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


__all__ = [
    "Counter",
    "CsvTelemetrySink",
    "Gauge",
    "Histogram",
    "JsonlTelemetrySink",
    "MemoryTelemetrySink",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "SessionSpan",
    "SpanEvent",
    "StreamingTelemetry",
    "TelemetrySampler",
    "TelemetrySink",
    "open_sink",
    "run_manifest",
    "summarize_telemetry",
    "telemetry_rows",
]
