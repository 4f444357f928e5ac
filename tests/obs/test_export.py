"""Unit tests for telemetry export and summaries."""

import csv
import io
import json

from repro.client.requests import VideoRequest
from repro.core.session import SessionRecord
from repro.obs.export import summarize_telemetry, telemetry_rows
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TelemetrySampler
from repro.obs.sink import CSV_FIELDS, CsvTelemetrySink, JsonlTelemetrySink, MemoryTelemetrySink
from repro.obs.spans import SessionSpan
from repro.sim.engine import Simulator


def write_all(sink, rows):
    for row in rows:
        sink.write(row)
    sink.close()
    return sink


def make_run():
    """A tiny instrumented run: one gauge, one counter, one histogram, one span."""
    sim = Simulator()
    registry = MetricsRegistry()
    registry.gauge("link.utilization", labels={"link": "a-b"}, callback=lambda: 0.5)
    counter = registry.counter("vra.decisions")
    counter.inc(3.0)
    hist = registry.histogram("session.startup_s")
    hist.observe(0.2)
    sampler = TelemetrySampler(sim, registry, period_s=10.0)
    sampler.start()
    sim.run(until=20.0)
    request = VideoRequest(
        request_id=1, client_id="c", home_uid="U1", title_id="t", submitted_at=0.0
    )
    span = SessionSpan(SessionRecord(request=request))
    span.add(0.0, "submitted")
    span.finish(5.0, "completed")
    return registry, sampler, [span]


def run_rows(registry, sampler, spans):
    """The run's rows: the samples its sampler wrote, then the end-of-run rows."""
    return list(sampler.sink.rows) + list(telemetry_rows(registry, spans))


class TestRows:
    def test_row_kinds_and_contents(self):
        registry, sampler, spans = make_run()
        rows = run_rows(registry, sampler, spans)
        kinds = {row["kind"] for row in rows}
        assert kinds == {"sample", "counter", "histogram", "span"}
        assert {row["kind"] for row in telemetry_rows(registry, spans)} == {
            "counter", "histogram", "span"
        }  # samples are written when taken, not at the end
        sample = next(r for r in rows if r["kind"] == "sample" and r["name"] == "link.utilization")
        assert sample["labels"] == {"link": "a-b"}
        assert sample["value"] == 0.5
        counter = next(r for r in rows if r["kind"] == "counter")
        assert counter["value"] == 3.0
        histogram = next(r for r in rows if r["kind"] == "histogram")
        assert histogram["count"] == 1
        span_row = next(r for r in rows if r["kind"] == "span")
        assert span_row["status"] == "completed"

    def test_registry_only_rows(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        rows = list(telemetry_rows(registry))
        assert [r["kind"] for r in rows] == ["counter"]


class TestJsonl:
    def test_every_line_is_valid_json(self):
        registry, sampler, spans = make_run()
        out = io.StringIO()
        count = write_all(JsonlTelemetrySink(out), run_rows(registry, sampler, spans)).written
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == count > 0
        parsed = [json.loads(line) for line in lines]
        assert {row["kind"] for row in parsed} == {"sample", "counter", "histogram", "span"}


class TestCsv:
    def test_header_and_span_accounting(self):
        registry, sampler, spans = make_run()
        out = io.StringIO()
        sink = write_all(CsvTelemetrySink(out), run_rows(registry, sampler, spans))
        written, skipped = sink.written, sink.skipped
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows[0] == CSV_FIELDS
        assert rows[0][:5] == ["kind", "name", "labels", "time", "value"]
        assert len(rows) - 1 == written
        assert skipped == 1  # the span row does not fit the flat table
        kinds = {row[0] for row in rows[1:]}
        assert "span" not in kinds
        assert {"sample", "counter", "histogram"} <= kinds
        sample = next(row for row in rows[1:] if row[0] == "sample")
        assert sample[2] == "link=a-b"

    def test_histogram_distribution_columns(self):
        registry = MetricsRegistry()
        hist = registry.histogram("session.startup_s")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        out = io.StringIO()
        sink = write_all(CsvTelemetrySink(out), telemetry_rows(registry))
        assert (sink.written, sink.skipped) == (1, 0)
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        row = rows[0]
        assert row["kind"] == "histogram"
        assert float(row["count"]) == 4
        assert float(row["mean"]) == 2.5
        assert float(row["value"]) == 2.5  # headline column mirrors the mean
        assert float(row["p50"]) == 2.0
        assert float(row["p95"]) == 4.0
        assert float(row["max"]) == 4.0
        # Non-histogram rows leave the distribution columns empty.
        registry.counter("c").inc()
        out = io.StringIO()
        write_all(CsvTelemetrySink(out), telemetry_rows(registry))
        counter_row = next(
            r for r in csv.DictReader(io.StringIO(out.getvalue())) if r["kind"] == "counter"
        )
        assert counter_row["count"] == ""
        assert counter_row["p95"] == ""


class TestSummary:
    def test_disabled_registry_summary(self):
        text = summarize_telemetry(MetricsRegistry(enabled=False))
        assert "observability disabled" in text

    def test_enabled_summary_mentions_instruments_and_spans(self):
        registry, sampler, spans = make_run()
        text = summarize_telemetry(registry, MemoryTelemetrySink())
        assert "instruments:" in text
        assert "spans:" not in text
        # Everything else is read from the rows the sink holds.
        sink = MemoryTelemetrySink()
        write_all(sink, run_rows(registry, sampler, spans))
        text = summarize_telemetry(registry, sink)
        assert "sampling: 3 rounds" in text
        assert "vra.decisions" in text
        assert "session.startup_s" in text
        assert "a-b" in text  # the one link, as the hottest
        assert "spans: 1 sessions (1 finished)" in text
