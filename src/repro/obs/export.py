"""The one flatten function, and the run summary that reads a row stream.

:func:`telemetry_rows` flattens one run's end-of-run telemetry into the
JSON-ready row dicts every :class:`~repro.obs.sink.TelemetrySink` writes:
``sample`` rows (one sampler snapshot of a gauge or counter), ``counter``
and ``histogram`` rows (end-of-run totals and distribution summaries),
and ``span`` rows (one full session span, see :mod:`repro.obs.spans`).
:class:`~repro.obs.stream.StreamingTelemetry` drains a run through it.

:func:`summarize_telemetry` renders the operator-facing text summary the
``python -m repro obs`` subcommand prints, from the rows of a
:class:`~repro.obs.sink.MemoryTelemetrySink`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.metrics.timeseries import TimeSeries
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TelemetrySampler
from repro.obs.sink import MemoryTelemetrySink
from repro.obs.spans import SessionSpan


def telemetry_rows(
    registry: MetricsRegistry,
    sampler: Optional[TelemetrySampler] = None,
    spans: Optional[Sequence[SessionSpan]] = None,
) -> Iterator[Dict[str, object]]:
    """Flatten one run's telemetry into JSON-ready row dicts."""
    if sampler is not None:
        for (name, labels), series in sorted(sampler.series().items()):
            label_dict = dict(labels)
            for time, value in series.samples():
                yield {
                    "kind": "sample",
                    "name": name,
                    "labels": label_dict,
                    "time": time,
                    "value": value,
                }
    for counter in registry.counters():
        yield {
            "kind": "counter",
            "name": counter.name,
            "labels": counter.label_dict(),
            "value": counter.value,
        }
    for histogram in registry.histograms():
        yield {
            "kind": "histogram",
            "name": histogram.name,
            "labels": histogram.label_dict(),
            **histogram.summary(),
        }
    for span in spans or ():
        yield {"kind": "span", **span.to_dict()}


def summarize_telemetry(
    registry: MetricsRegistry,
    sink: Optional[MemoryTelemetrySink] = None,
    top: int = 8,
) -> str:
    """Operator-facing text summary of one run's telemetry.

    Instrument counts come from ``registry``; everything else is read
    from the rows ``sink`` holds (samples, totals, spans, trace events).
    """
    lines: List[str] = ["Telemetry summary", "=" * 40]
    if not registry.enabled:
        lines.append("observability disabled (no-op registry)")
        return "\n".join(lines)

    families = registry.families()
    lines.append(
        f"instruments: {len(registry)} across {len(families)} families "
        f"({len(registry.gauges())} gauges, {len(registry.counters())} counters, "
        f"{len(registry.histograms())} histograms)"
    )
    rows: Dict[str, List[Dict[str, object]]] = {}
    for row in sink.rows if sink is not None else ():
        rows.setdefault(str(row["kind"]), []).append(row)
    samples = rows.get("sample", [])
    if samples:
        rounds = len({row["time"] for row in samples})
        config = (sink.manifest or {}).get("config", {})
        period = config.get("telemetry_period_s")
        every = f" every {period:g} s of simulated time" if period else ""
        lines.append(f"sampling: {rounds} rounds{every}")

    counters = [row for row in rows.get("counter", []) if row["value"] > 0]
    if counters:
        lines.append("counters (non-zero):")
        for row in counters:
            label_text = ",".join(f"{k}={v}" for k, v in row["labels"].items())
            name = row["name"] + (f"{{{label_text}}}" if label_text else "")
            lines.append(f"  {name:<44} {row['value']:12g}")

    histograms = [row for row in rows.get("histogram", []) if row["count"] > 0]
    if histograms:
        lines.append("histograms:")
        for row in histograms:
            lines.append(
                f"  {row['name']:<34} n={row['count']:<6g} mean={row['mean']:.3f} "
                f"p95={row['p95']:.3f} max={row['max']:.3f}"
            )

    for family, key, title in (
        ("link.utilization", "link", "hottest links (peak utilisation):"),
        ("server.cache_fraction", "server", "fullest caches (peak occupancy):"),
    ):
        hottest = _hottest_series(samples, family, top)
        if hottest:
            lines.append(title)
            for labels, peak, avg in hottest:
                lines.append(
                    f"  {labels.get(key, '?'):<24} peak {peak:7.2%}  "
                    f"time-avg {avg:7.2%}"
                )

    spans = rows.get("span", [])
    if spans:
        finished = sum(1 for row in spans if row["finished_at"] is not None)
        switches = sum(row["switch_count"] for row in spans)
        decisions = sum(row["decision_count"] for row in spans)
        lines.append(
            f"spans: {len(spans)} sessions ({finished} finished), "
            f"{decisions} VRA decisions, {switches} switches"
        )
    trace = rows.get("trace", [])
    if trace or (sink is not None and sink.dropped):
        categories = {row["category"] for row in trace}
        lines.append(
            f"trace: {len(trace)} events in {len(categories)} "
            f"categories, {sink.dropped} dropped by capacity bound"
        )
    return "\n".join(lines)


def sample_series(
    rows: Iterable[Dict[str, object]], family: str
) -> List[Tuple[Dict[str, str], TimeSeries]]:
    """One family's series rebuilt from a stream's ``sample`` rows (spilled
    ones included), as (labels, series) pairs sorted by labels."""
    series: Dict[Tuple[Tuple[str, str], ...], TimeSeries] = {}
    for row in rows:
        if row["kind"] == "sample" and row["name"] == family:
            key = tuple(sorted(row["labels"].items()))
            series.setdefault(key, TimeSeries(family)).record(row["time"], row["value"])
    return [(dict(key), series[key]) for key in sorted(series)]


def _hottest_series(samples: Sequence[Dict[str, object]], family: str, top: int):
    """(labels, peak, time-average) of a family's series, hottest first."""
    ranked = [
        (labels, one.maximum(), one.time_average())
        for labels, one in sample_series(samples, family)
    ]
    ranked.sort(key=lambda row: (-row[1], sorted(row[0].items())))
    return ranked[:top]
