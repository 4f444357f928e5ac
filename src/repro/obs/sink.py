"""Telemetry sinks: the one writer every telemetry row goes through.

A :class:`TelemetrySink` takes rows one at a time from every producer
of a run, when they happen: the tracer (``trace`` rows), the sampler
(``sample`` rows, through :meth:`TelemetrySink.sample_writer`), the
service (a ``span`` row as each span closes), and the manifest,
end-of-run rows and footer of
:class:`~repro.obs.stream.StreamingTelemetry`.  :func:`open_sink` builds
one of three formats: ``jsonl`` and ``csv`` write to a path (owned,
closed, rotatable into ``path.1``, ``path.2``, ...) or an open handle
behind the run; ``memory`` (:class:`MemoryTelemetrySink`) keeps the rows
for in-process readers and copies them through a file sink on demand.
The ``manifest`` (first, and at the head of every rotated part) and
``footer`` (last) control rows frame the data rows and do not count
toward their totals.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from pathlib import Path
from typing import IO, Callable, Collection, Deque, Dict, List, Optional, Union

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

    Returns None for rows that do not fit the flat table (spans, trace
    events and the manifest/footer control rows) so callers can count
    them as skipped.
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
    """Base class: counting, rotation and the manifest/footer frame.

    Subclasses implement ``_emit_control`` (manifest/footer rows) and
    ``_emit_data`` (one telemetry row; return False to skip it); a sink
    that rotates implements ``_rotate``.

    Attributes:
        written: Data rows written (all parts).
        skipped: Data rows the format could not represent.
        by_kind: Written-row counts per ``kind`` discriminator.
        manifest: The manifest control row (None until written).
        part_paths: Paths written so far (empty unless writing to a path).
        max_rows_per_file: Rotation bound (None: never rotate).
    """

    def __init__(self, max_rows_per_file: Optional[int] = None):
        self.written = 0
        self.skipped = 0
        self.by_kind: Dict[str, int] = {}
        self.manifest: Optional[Dict[str, object]] = None
        self.part_paths: List[Path] = []
        self.max_rows_per_file = max_rows_per_file
        self.closed = False
        self._rows_in_part = 0

    def write_manifest(self, manifest: Dict[str, object]) -> None:
        """Write the run-manifest control row (kept for rotated parts)."""
        self.manifest = {"kind": "manifest", **manifest}
        self._emit_control(self.manifest)

    def write(self, row: Dict[str, object]) -> None:
        """Write one telemetry row, rotating first if the part is full."""
        if self.max_rows_per_file is not None and self._rows_in_part >= self.max_rows_per_file:
            self._rotate()
        if self._emit_data(row):
            self.written += 1
            self._rows_in_part += 1
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
        """Write the run-footer control row (into the last part)."""
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
    """A sink writing text lines to a path (rotating) or an open handle.

    Subclasses add ``_emit_header`` (once per part) to the format hooks.
    """

    #: newline= argument used when the sink opens its own files.
    _newline: Optional[str] = None

    def __init__(self, target: SinkTarget, max_rows_per_file: Optional[int] = None):
        if max_rows_per_file is not None and max_rows_per_file < 1:
            raise ReproError(
                f"max_rows_per_file must be >= 1, got {max_rows_per_file!r}"
            )
        self._owns_handle = isinstance(target, (str, Path))
        if not self._owns_handle and max_rows_per_file is not None:
            raise ReproError("rotation requires a path target, not an open handle")
        super().__init__(max_rows_per_file)
        if self._owns_handle:
            base = Path(target)
            self._handle: IO[str] = open(base, "w", encoding="utf-8", newline=self._newline)
            self.part_paths.append(base)
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

    def _rotate(self) -> None:
        self._handle.close()
        next_path = Path(f"{self.part_paths[0]}.{len(self.part_paths)}")
        self.part_paths.append(next_path)
        self._handle = open(next_path, "w", encoding="utf-8", newline=self._newline)
        self._rows_in_part = 0
        self._emit_header()
        if self.manifest is not None:
            self._emit_control(self.manifest)

    def _emit_header(self) -> None:
        """Per-part prologue (CSV header row); default none."""


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
        ``NaN``, ``Infinity``, ``-Infinity``).  Rotation is checked per
        row and the counters move exactly as under :meth:`write`."""
        head = encode_row({"kind": "sample", "labels": labels, "name": name})[:-1]
        limit = self.max_rows_per_file
        by_kind = self.by_kind

        def write_sample(time: float, value: float) -> None:
            if limit is not None:  # the part count matters only to rotation
                if self._rows_in_part >= limit:
                    self._rotate()
                self._rows_in_part += 1
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
    and trace rows do not fit the flat schema and are skipped (counted).
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
    """Keeps rows in memory for in-process readers.

    Args:
        capacity: Keep at most this many data rows, dropping the oldest
            first; None keeps everything.

    Attributes:
        rows: The kept data rows, oldest first.
        dropped: Rows the capacity bound pushed out.
        footer: The footer control row (None until written).
    """

    def __init__(self, capacity: Optional[int] = None):
        super().__init__()
        self.capacity = capacity
        self.rows: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self.dropped = 0
        self.footer: Optional[Dict[str, object]] = None

    def copy_to(self, sink: TelemetrySink, kinds: Optional[Collection[str]] = None) -> None:
        """Write the manifest, the kept rows (only ``kinds``, when given)
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
        if len(self.rows) == self.capacity:
            self.dropped += 1
        self.rows.append(row)
        return True


def open_sink(
    target: Optional[SinkTarget],
    fmt: str = "jsonl",
    max_rows_per_file: Optional[int] = None,
) -> TelemetrySink:
    """Build the sink for a format name: ``"jsonl"`` or ``"csv"`` (writing
    to ``target``), or ``"memory"`` (no target, unbounded)."""
    if fmt == "jsonl":
        return JsonlTelemetrySink(target, max_rows_per_file=max_rows_per_file)
    if fmt == "csv":
        return CsvTelemetrySink(target, max_rows_per_file=max_rows_per_file)
    if fmt == "memory":
        if target is not None or max_rows_per_file is not None:
            raise ReproError("a memory sink takes no target and does not rotate")
        return MemoryTelemetrySink()
    raise ReproError(f"unknown telemetry sink format {fmt!r} (jsonl, csv or memory)")
