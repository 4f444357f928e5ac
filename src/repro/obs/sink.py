"""Telemetry sinks: the one writer every telemetry row goes through.

A :class:`TelemetrySink` takes rows one at a time from every producer
of a run, when they happen: the sampler (``sample`` rows, through
:meth:`TelemetrySink.sample_writer`), the service (a ``span`` row as
each span closes, the one trail of a request), and the manifest,
end-of-run rows and footer of
:class:`~repro.obs.stream.StreamingTelemetry`.  :func:`open_sink` builds
one of two file formats, ``jsonl`` and ``csv``, which write to a path
(owned and closed by the sink) or an open handle behind the run;
:class:`MemoryTelemetrySink` keeps every row for in-process readers and
copies them through a file sink on demand.  The ``manifest``
(first) and ``footer`` (last) control rows frame the data rows and do
not count toward their totals.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import IO, Callable, Collection, Dict, List, Optional, Union

from repro.errors import ReproError

#: Where a file sink writes: a filesystem path or an open text handle.
SinkTarget = Union[str, Path, IO[str]]

#: Writes one series' ``sample`` row: ``write(time, value)``.
SampleWriter = Callable[[float, float], None]

#: The one JSON encoder every telemetry row goes through: the same
#: defaults and bytes as ``json.dumps(row, sort_keys=True)``, without
#: constructing a ``JSONEncoder`` per row.
encode_row = json.JSONEncoder(sort_keys=True).encode

#: Flat CSV schema of :class:`CsvTelemetrySink`.  ``value`` is the
#: headline (sample value, counter total, histogram mean); the
#: distribution columns are only filled for histogram rows.
CSV_FIELDS = ["kind", "name", "labels", "time", "value", "count", "mean", "p50", "p95", "max"]

#: How ``json`` spells the floats ``repr`` spells differently.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    """``x`` exactly as ``json`` writes it (``float.__repr__`` otherwise)."""
    text = repr(x)
    return _NON_FINITE.get(text, text)


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
        mean = row.get("mean", 0.0)
        return [kind, row["name"], labels, "", mean, row.get("count", 0), mean,
                row.get("p50", 0.0), row.get("p95", 0.0), row.get("max", 0.0)]
    return None


class TelemetrySink:
    """Base class: counting and the manifest/footer frame.

    Subclasses implement ``_emit_control`` (manifest/footer rows) and
    ``_emit_data`` (one telemetry row; return False to skip it).

    Attributes:
        written: Data rows written.
        skipped: Data rows the format could not represent.
        by_kind: Written-row counts per ``kind`` discriminator.
        manifest: The manifest control row (None until written).
        part_paths: The file written, as a one-element list (empty for
            an open handle or a memory sink).
    """

    def __init__(self):
        self.written = 0
        self.skipped = 0
        self.by_kind: Dict[str, int] = {}
        self.manifest: Optional[Dict[str, object]] = None
        self.part_paths: List[Path] = []
        self.closed = False

    def write_manifest(self, manifest: Dict[str, object]) -> None:
        """Write the run-manifest control row."""
        self.manifest = {"kind": "manifest", **manifest}
        self._emit_control(self.manifest)

    def write(self, row: Dict[str, object]) -> None:
        """Write one telemetry row."""
        if self._emit_data(row):
            self.written += 1
            kind = str(row.get("kind", "?"))
            self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        else:
            self.skipped += 1

    def sample_writer(self, name: str, labels: Dict[str, str]) -> SampleWriter:
        """A ``write(time, value)`` for one series' ``sample`` rows.

        Each call is, byte for byte and counter for counter, one
        :meth:`write` of ``{"kind": "sample", "name": name, "labels":
        labels, "time": time, "value": value}`` — which is what this
        default does; a format may override it to encode the part of the
        row that is constant across the series once.  ``write`` is looked
        up at call time, so a wrapper installed on the instance sees
        every row.
        """

        def write_sample(time: float, value: float) -> None:
            self.write(
                {"kind": "sample", "name": name, "labels": labels, "time": time, "value": value}
            )

        return write_sample

    def write_footer(self, footer: Dict[str, object]) -> None:
        """Write the run-footer control row."""
        self._emit_control({"kind": "footer", **footer})

    def totals(self) -> Dict[str, object]:
        """The data-row totals a footer reports for this sink."""
        return {
            "rows_written": self.written,
            "rows_skipped": self.skipped,
            "rows_by_kind": dict(sorted(self.by_kind.items())),
        }

    def close(self) -> None:
        """Close the sink; further rows are the caller's error."""
        self.closed = True

    def _emit_control(self, row: Dict[str, object]) -> None:
        raise NotImplementedError

    def _emit_data(self, row: Dict[str, object]) -> bool:
        raise NotImplementedError


class FileTelemetrySink(TelemetrySink):
    """A sink writing text lines to a path or an open handle.

    Subclasses add ``_emit_header`` (once, before any row) to the format
    hooks.
    """

    #: newline= argument used when the sink opens its own file.
    _newline: Optional[str] = None

    def __init__(self, target: SinkTarget):
        self._owns_handle = isinstance(target, (str, Path))
        super().__init__()
        if self._owns_handle:
            path = Path(target)
            self._handle: IO[str] = open(path, "w", encoding="utf-8", newline=self._newline)
            self.part_paths.append(path)
        else:
            self._handle = target
        self._emit_header()

    def close(self) -> None:
        """Close the sink (owned handles are closed, borrowed ones flushed)."""
        if self.closed:
            return
        if self._owns_handle:
            self._handle.close()
        else:
            self._handle.flush()
        self.closed = True

    def _emit_header(self) -> None:
        """Prologue (CSV header row); default none."""


class JsonlTelemetrySink(FileTelemetrySink):
    """One JSON object per line; every row kind is representable."""

    def _emit_control(self, row: Dict[str, object]) -> None:
        self._handle.write(encode_row(row))
        self._handle.write("\n")

    def _emit_data(self, row: Dict[str, object]) -> bool:
        self._emit_control(row)
        return True

    def sample_writer(self, name: str, labels: Dict[str, str]) -> SampleWriter:
        """The series-constant head of the line is encoded once; each
        float is then written as ``json`` writes it (``float.__repr__``,
        ``NaN``, ``Infinity``, ``-Infinity``).  The counters move exactly
        as under :meth:`write`."""
        head = encode_row({"kind": "sample", "labels": labels, "name": name})[:-1]
        by_kind = self.by_kind

        def write_sample(time: float, value: float) -> None:
            if time - time == 0.0 and value - value == 0.0:  # both finite
                line = f'{head}, "time": {time!r}, "value": {value!r}}}\n'
            else:
                line = f'{head}, "time": {_json_float(time)}, "value": {_json_float(value)}}}\n'
            self._handle.write(line)
            self.written += 1
            by_kind["sample"] = by_kind.get("sample", 0) + 1

        return write_sample


class CsvTelemetrySink(FileTelemetrySink):
    """Flat CSV rows (:data:`CSV_FIELDS` schema).

    Control rows are written as ``#``-prefixed JSON comment lines so the
    manifest and footer survive in-band without breaking the table; span
    rows do not fit the flat schema and are skipped (counted).
    """

    _newline = ""

    def _emit_header(self) -> None:
        self._writer = csv.writer(self._handle)
        self._writer.writerow(CSV_FIELDS)

    def _emit_control(self, row: Dict[str, object]) -> None:
        self._handle.write("# " + encode_row(row) + "\r\n")

    def _emit_data(self, row: Dict[str, object]) -> bool:
        record = csv_record(row)
        if record is None:
            return False
        self._writer.writerow(record)
        return True


class MemoryTelemetrySink(TelemetrySink):
    """Keeps every row in memory for in-process readers.

    Attributes:
        rows: The data rows, oldest first.
        footer: The footer control row (None until written).
    """

    def __init__(self):
        super().__init__()
        self.rows: List[Dict[str, object]] = []
        self.footer: Optional[Dict[str, object]] = None

    def copy_to(self, sink: TelemetrySink, kinds: Optional[Collection[str]] = None) -> None:
        """Write the manifest, the rows (only ``kinds``, when given)
        and the footer through ``sink``, then close it.  The copy's footer
        reports the copy's own row totals."""
        if self.manifest is not None:
            sink.write_manifest(self.manifest)
        for row in self.rows:
            if kinds is None or row["kind"] in kinds:
                sink.write(row)
        if self.footer is not None:
            sink.write_footer({**self.footer, **sink.totals()})
        sink.close()

    def _emit_control(self, row: Dict[str, object]) -> None:
        if row["kind"] == "footer":
            self.footer = row

    def _emit_data(self, row: Dict[str, object]) -> bool:
        self.rows.append(row)
        return True


def open_sink(target: SinkTarget, fmt: str = "jsonl") -> TelemetrySink:
    """Build the file sink for a format name, ``"jsonl"`` or ``"csv"``,
    writing to ``target``; a memory sink is :class:`MemoryTelemetrySink`."""
    if fmt == "jsonl":
        return JsonlTelemetrySink(target)
    if fmt == "csv":
        return CsvTelemetrySink(target)
    raise ReproError(f"unknown telemetry sink format {fmt!r} (jsonl or csv)")
