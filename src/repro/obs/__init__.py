"""Unified telemetry layer.

Three cooperating pieces turn a service run into measurable telemetry:

* :mod:`repro.obs.registry` — a metrics registry handing out Counter /
  Gauge / Histogram instruments, labelled by subsystem.  A disabled
  registry returns shared no-op instruments, so instrumented hot paths
  cost one dynamic dispatch when observability is off (the enabled
  path's cost is the ``chaos_storm`` workload of ``benchmarks/ledger/``).
* :mod:`repro.obs.sampler` — a periodic simulator process snapshotting
  every registered gauge into ring-buffered
  :class:`~repro.metrics.timeseries.TimeSeries`.
* :mod:`repro.obs.spans` — per-request session spans recording the VRA
  decision (latency + routing epoch), per-cluster deliveries and
  mid-stream switches, sinking into the structured
  :class:`~repro.sim.trace.Tracer`.

:mod:`repro.obs.export` serialises all of it to JSONL/CSV for the
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
from repro.obs.spans import SessionSpan, SpanEvent

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.obs.export import (
        export_csv,
        export_jsonl,
        summarize_telemetry,
        telemetry_rows,
    )
    from repro.obs.sampler import TelemetrySampler
    from repro.obs.sink import (
        CsvTelemetrySink,
        JsonlTelemetrySink,
        TelemetrySink,
        open_sink,
    )
    from repro.obs.stream import StreamingTelemetry, run_manifest

# The sampler (and through it the export module) depends on
# repro.metrics, whose package init reaches back into repro.core — a
# cycle if resolved while core.vra is importing repro.obs.registry.
# PEP 562 lazy attributes break the cycle: the heavy submodules load on
# first attribute access, after the core package finished initialising.
_LAZY = {
    "TelemetrySampler": "repro.obs.sampler",
    "export_csv": "repro.obs.export",
    "export_jsonl": "repro.obs.export",
    "summarize_telemetry": "repro.obs.export",
    "telemetry_rows": "repro.obs.export",
    "CsvTelemetrySink": "repro.obs.sink",
    "JsonlTelemetrySink": "repro.obs.sink",
    "TelemetrySink": "repro.obs.sink",
    "open_sink": "repro.obs.sink",
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


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "Counter",
    "CsvTelemetrySink",
    "Gauge",
    "Histogram",
    "JsonlTelemetrySink",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "SessionSpan",
    "SpanEvent",
    "StreamingTelemetry",
    "TelemetrySampler",
    "TelemetrySink",
    "export_csv",
    "export_jsonl",
    "open_sink",
    "run_manifest",
    "summarize_telemetry",
    "telemetry_rows",
]
