"""Unit tests for the streaming telemetry sinks (JSONL/CSV, rotation)."""

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
from repro.obs.export import CSV_FIELDS
from repro.obs.sink import CsvTelemetrySink, JsonlTelemetrySink, open_sink

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

    def test_rotation_repeats_manifest_per_part(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlTelemetrySink(path, max_rows_per_file=2)
        sink.write_manifest(MANIFEST)
        for i in range(5):
            sink.write(sample_row(i))
        sink.write_footer({"done": True})
        sink.close()
        assert sink.part_paths == [path, tmp_path / "run.jsonl.1", tmp_path / "run.jsonl.2"]
        parts = [read_jsonl(p) for p in sink.part_paths]
        # Every part leads with the same manifest — each file is
        # self-describing on its own.
        for part in parts:
            assert part[0]["kind"] == "manifest"
            assert part[0]["seed"] == 23
        # 2 + 2 + 1 data rows; the footer lands in the last part.
        assert [len(p) - 1 for p in parts] == [2, 2, 2]
        assert parts[-1][-1]["kind"] == "footer"
        times = [row["time"] for part in parts for row in part if row["kind"] == "sample"]
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_rotation_requires_a_path(self):
        with pytest.raises(ReproError):
            JsonlTelemetrySink(io.StringIO(), max_rows_per_file=10)

    def test_invalid_rotation_bound(self, tmp_path):
        with pytest.raises(ReproError):
            JsonlTelemetrySink(tmp_path / "x.jsonl", max_rows_per_file=0)


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


class TestWriteSamples:
    @given(
        st.lists(series, min_size=1, max_size=4),
        st.sampled_from([None, 1, 3]),
        st.sampled_from(["jsonl", "csv"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_artifact_as_one_write_per_sample(self, batches, max_rows, fmt):
        """``write_samples`` is ``write`` per sample: bytes, counters,
        parts and per-part manifests, across rotation."""

        def artifact(directory, batched):
            sink = open_sink(Path(directory) / f"run.{fmt}", fmt, max_rows_per_file=max_rows)
            sink.write_manifest(MANIFEST)
            for name, labels, samples in batches:
                times = [t for t, _ in samples]
                values = [v for _, v in samples]
                if batched:
                    sink.write_samples(name, labels, times, values)
                else:
                    for t, v in samples:
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
            assert artifact(one, batched=True) == artifact(two, batched=False)
