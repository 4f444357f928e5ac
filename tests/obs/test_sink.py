"""Unit tests for the streaming telemetry sinks (JSONL/CSV/memory)."""

import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.sink import (
    CSV_FIELDS,
    CsvTelemetrySink,
    JsonlTelemetrySink,
    MemoryTelemetrySink,
    open_sink,
)

MANIFEST = {"seed": 23, "config_hash": "abc"}


def sample_row(i):
    return {"kind": "sample", "name": "g", "labels": {}, "time": float(i), "value": float(i)}


def read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class TestJsonl:
    def test_counts_and_frame(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlTelemetrySink(path)
        sink.write_manifest(MANIFEST)
        for i in range(3):
            sink.write(sample_row(i))
        sink.write({"kind": "span", "request_id": 1})
        sink.write_footer({"rows_written": sink.written})
        sink.close()
        assert sink.written == 4
        assert sink.skipped == 0
        assert sink.by_kind == {"sample": 3, "span": 1}
        rows = read_jsonl(path)
        assert rows[0]["kind"] == "manifest"
        assert rows[0]["seed"] == 23
        assert rows[-1] == {"kind": "footer", "rows_written": 4}
        # Control rows frame the data rows but are not counted.
        assert len(rows) == 4 + 2

    def test_handle_target_is_not_closed(self):
        out = io.StringIO()
        sink = JsonlTelemetrySink(out)
        sink.write(sample_row(0))
        sink.close()
        assert not out.closed
        assert json.loads(out.getvalue())["kind"] == "sample"



class TestCsv:
    def test_schema_and_span_accounting(self, tmp_path):
        path = tmp_path / "run.csv"
        sink = CsvTelemetrySink(path)
        sink.write_manifest(MANIFEST)
        sink.write(sample_row(1))
        sink.write({"kind": "histogram", "name": "h", "labels": {},
                    "count": 2, "mean": 1.5, "min": 1.0, "max": 2.0,
                    "p50": 1.0, "p95": 2.0})
        sink.write({"kind": "span", "request_id": 1})
        sink.write_footer({"rows_written": sink.written})
        sink.close()
        assert (sink.written, sink.skipped) == (2, 1)
        text = path.read_text(encoding="utf-8")
        comments = [line for line in text.splitlines() if line.startswith("# ")]
        manifest = json.loads(comments[0][2:])
        footer = json.loads(comments[1][2:])
        assert manifest["kind"] == "manifest"
        assert footer == {"kind": "footer", "rows_written": 2}
        data = [line for line in text.splitlines() if not line.startswith("# ")]
        rows = list(csv.reader(io.StringIO("\n".join(data))))
        assert rows[0] == CSV_FIELDS
        histogram = next(r for r in rows if r[0] == "histogram")
        assert histogram[5] == "2"  # count
        assert histogram[8] == "2.0"  # p95

    def test_open_sink_dispatch(self, tmp_path):
        assert isinstance(open_sink(tmp_path / "a.jsonl", "jsonl"), JsonlTelemetrySink)
        assert isinstance(open_sink(tmp_path / "a.csv", "csv"), CsvTelemetrySink)
        with pytest.raises(ReproError):
            open_sink(tmp_path / "a.xml", "xml")
        with pytest.raises(ReproError):
            open_sink(tmp_path / "a.jsonl", "memory")


class TestMemory:
    def test_keeps_rows_and_frame_apart(self):
        sink = MemoryTelemetrySink()
        sink.write_manifest(MANIFEST)
        for i in range(3):
            sink.write(sample_row(i))
        sink.sample_writer("h", {"x": "1"})(5.0, 6.0)
        sink.write_footer({"wall_time_s": 1.0})
        sink.close()
        assert list(sink.rows) == [sample_row(i) for i in range(3)] + [
            {"kind": "sample", "name": "h", "labels": {"x": "1"}, "time": 5.0, "value": 6.0}
        ]
        assert sink.manifest == {"kind": "manifest", **MANIFEST}
        assert sink.footer == {"kind": "footer", "wall_time_s": 1.0}
        assert (sink.written, sink.skipped) == (4, 0)
        assert sink.by_kind == {"sample": 4}

    def test_copy_is_the_artifact_a_file_sink_writes(self, tmp_path):
        rows = [sample_row(0), {"kind": "span", "request_id": 1}, sample_row(1)]
        direct = JsonlTelemetrySink(tmp_path / "direct.jsonl")
        memory = MemoryTelemetrySink()
        for sink in (direct, memory):
            sink.write_manifest(MANIFEST)
            for row in rows:
                sink.write(row)
            sink.write_footer({**sink.totals(), "wall_time_s": 1.0})
            sink.close()
        memory.copy_to(JsonlTelemetrySink(tmp_path / "copy.jsonl"))
        assert (tmp_path / "copy.jsonl").read_bytes() == (tmp_path / "direct.jsonl").read_bytes()
        # A filtered copy reports its own totals in the footer.
        out = io.StringIO()
        memory.copy_to(JsonlTelemetrySink(out), kinds=("span",))
        copied = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [row["kind"] for row in copied] == ["manifest", "span", "footer"]
        assert copied[-1]["rows_written"] == 1
        assert copied[-1]["rows_by_kind"] == {"span": 1}
        assert copied[-1]["wall_time_s"] == 1.0


#: Floats whose ``repr`` and JSON spellings are the likeliest to part ways.
AWKWARD_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1e22, 1e16, 0.1 + 0.2, 3.0, -7.0, 28_800.0,
]
floats = st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats())
#: Quotes, backslashes, control characters and non-ASCII all included.
texts = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "Θεσσαλονίκη", "\n\t"]),
    st.text(max_size=8),
)
series = st.tuples(
    texts,
    st.dictionaries(texts, texts, max_size=3),
    st.lists(st.tuples(floats, floats), max_size=7),
)


class TestSampleWriter:
    @given(
        st.lists(series, min_size=1, max_size=4),
        st.sampled_from(["jsonl", "csv"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_artifact_as_one_write_per_sample(self, batches, fmt):
        """A ``sample_writer`` call is one ``write``: bytes and
        counters."""

        def artifact(directory, per_series):
            sink = open_sink(Path(directory) / f"run.{fmt}", fmt)
            sink.write_manifest(MANIFEST)
            writers = [sink.sample_writer(name, labels) for name, labels, _ in batches]
            # Ticks interleave the series, as the sampler's do.
            for tick in range(max(len(samples) for _, _, samples in batches)):
                for (name, labels, samples), write in zip(batches, writers):
                    if tick >= len(samples):
                        continue
                    t, v = samples[tick]
                    if per_series:
                        write(t, v)
                    else:
                        sink.write(
                            {"kind": "sample", "name": name, "labels": labels,
                             "time": t, "value": v}
                        )
            sink.write_footer({"rows_written": sink.written})
            sink.close()
            return (
                [part.name for part in sink.part_paths],
                [part.read_bytes() for part in sink.part_paths],
                sink.written,
                sink.skipped,
                sink.by_kind,
            )

        with tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as two:
            assert artifact(one, per_series=True) == artifact(two, per_series=False)
