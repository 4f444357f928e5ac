"""Telemetry serialisation and run summaries.

One run's telemetry flattens into a stream of JSON-ready row dicts
(:func:`telemetry_rows`) which :func:`export_jsonl` / :func:`export_csv`
serialise.  Row kinds:

``sample``
    One sampler snapshot of a gauge or counter: name, labels, time, value.
``counter`` / ``histogram``
    End-of-run totals and distribution summaries per instrument.
``span``
    One full session span (see :mod:`repro.obs.spans`).

:func:`summarize_telemetry` renders the operator-facing text summary the
``python -m repro obs`` subcommand prints.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TelemetrySampler
from repro.obs.spans import SessionSpan
from repro.sim.trace import Tracer


#: The one JSON encoder every telemetry row goes through: the same
#: defaults and bytes as ``json.dumps(row, sort_keys=True)``, without
#: constructing a ``JSONEncoder`` per row.
encode_row = json.JSONEncoder(sort_keys=True).encode


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


def export_jsonl(rows: Iterable[Dict[str, object]], out: TextIO) -> int:
    """Write rows as JSON Lines; returns the row count."""
    count = 0
    for row in rows:
        out.write(encode_row(row))
        out.write("\n")
        count += 1
    return count


#: Flat CSV schema shared by :func:`export_csv` and the streaming CSV sink.
#: ``value`` is the headline (sample value, counter total, histogram mean);
#: the distribution columns are only filled for histogram rows.
CSV_FIELDS = ["kind", "name", "labels", "time", "value", "count", "mean", "p50", "p95", "max"]


def csv_record(row: Dict[str, object]) -> Optional[List[object]]:
    """Flatten one telemetry row to the :data:`CSV_FIELDS` column list.

    Returns None for rows that do not fit the flat table (spans and the
    manifest/footer control rows) so callers can count them as skipped.
    """
    kind = row.get("kind")
    labels = ";".join(f"{k}={v}" for k, v in sorted(dict(row.get("labels", {})).items()))
    if kind == "sample":
        return [kind, row["name"], labels, row["time"], row["value"], "", "", "", "", ""]
    if kind == "counter":
        return [kind, row["name"], labels, "", row["value"], "", "", "", "", ""]
    if kind == "histogram":
        return [
            kind,
            row["name"],
            labels,
            "",
            row.get("mean", 0.0),
            row.get("count", 0),
            row.get("mean", 0.0),
            row.get("p50", 0.0),
            row.get("p95", 0.0),
            row.get("max", 0.0),
        ]
    return None


def export_csv(rows: Iterable[Dict[str, object]], out: TextIO) -> Tuple[int, int]:
    """Write flat telemetry rows as CSV (see :data:`CSV_FIELDS`).

    Samples keep their time/value; counters their total; histograms carry
    count/mean/p50/p95/max distribution columns.  Span rows (nested event
    payloads) do not fit a flat table and are skipped — but counted.

    Returns:
        ``(written, skipped)`` — data rows written vs. rows skipped.
    """
    writer = csv.writer(out)
    writer.writerow(CSV_FIELDS)
    written = 0
    skipped = 0
    for row in rows:
        record = csv_record(row)
        if record is None:
            skipped += 1
            continue
        writer.writerow(record)
        written += 1
    return written, skipped


def summarize_telemetry(
    registry: MetricsRegistry,
    sampler: Optional[TelemetrySampler] = None,
    spans: Optional[Sequence[SessionSpan]] = None,
    tracer: Optional[Tracer] = None,
    top: int = 8,
) -> str:
    """Operator-facing text summary of one run's telemetry."""
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
    if sampler is not None:
        lines.append(
            f"sampling: {sampler.sample_count} rounds every {sampler.period_s:g} s "
            f"of simulated time"
        )

    counters = [c for c in registry.counters() if c.value > 0]
    if counters:
        lines.append("counters (non-zero):")
        for counter in counters:
            label_text = ",".join(f"{k}={v}" for k, v in counter.labels)
            suffix = f"{{{label_text}}}" if label_text else ""
            lines.append(f"  {counter.name + suffix:<44} {counter.value:12g}")

    histograms = [h for h in registry.histograms() if h.count > 0]
    if histograms:
        lines.append("histograms:")
        for histogram in histograms:
            s = histogram.summary()
            lines.append(
                f"  {histogram.name:<34} n={s['count']:<6g} mean={s['mean']:.3f} "
                f"p95={s['p95']:.3f} max={s['max']:.3f}"
            )

    if sampler is not None:
        hottest = _hottest_series(sampler, "link.utilization", top)
        if hottest:
            lines.append("hottest links (peak utilisation):")
            for labels, peak, avg in hottest:
                lines.append(
                    f"  {labels.get('link', '?'):<24} peak {peak:7.2%}  "
                    f"time-avg {avg:7.2%}"
                )
        fullest = _hottest_series(sampler, "server.cache_fraction", top)
        if fullest:
            lines.append("fullest caches (peak occupancy):")
            for labels, peak, avg in fullest:
                lines.append(
                    f"  {labels.get('server', '?'):<24} peak {peak:7.2%}  "
                    f"time-avg {avg:7.2%}"
                )

    if spans:
        finished = [s for s in spans if not s.open]
        switches = sum(s.switch_count for s in spans)
        decisions = sum(s.decision_count for s in spans)
        lines.append(
            f"spans: {len(spans)} sessions ({len(finished)} finished), "
            f"{decisions} VRA decisions, {switches} switches"
        )
    if tracer is not None and tracer.enabled:
        lines.append(
            f"trace: {len(tracer)} events in {len(tracer.categories())} "
            f"categories, {tracer.dropped_count} dropped by capacity bound"
        )
    return "\n".join(lines)


def _hottest_series(sampler: TelemetrySampler, family: str, top: int):
    """(labels, peak, time-average) of a family's series, hottest first."""
    ranked = []
    for labels, series in sampler.series_for(family):
        if len(series) == 0:
            continue
        ranked.append((labels, series.maximum(), series.time_average()))
    ranked.sort(key=lambda row: (-row[1], sorted(row[0].items())))
    return ranked[:top]
