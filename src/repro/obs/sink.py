"""Telemetry sinks: incremental JSONL/CSV writers with rotation.

A :class:`TelemetrySink` accepts telemetry rows one at a time — the same
dicts :func:`repro.obs.export.telemetry_rows` yields — and writes them
behind the run as it happens, so memory stays bounded by what is still
*live* (open spans, sampler rings) instead of everything ever recorded.

Every sink frames its output with two control rows that do not count
toward the data-row totals:

``manifest``
    Written first (see :func:`repro.obs.stream.run_manifest`); repeated
    at the head of every rotated part so each file is self-describing.
``footer``
    Written last: totals, wall time, peak RSS.

Sinks accept either a path (the sink owns and closes the handle, and
``max_rows_per_file`` rotation is available: parts are named ``path``,
``path.1``, ``path.2``, ...) or an open text handle (the caller owns it;
no rotation).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import IO, Dict, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.obs.export import CSV_FIELDS, csv_record, encode_row

#: Where a sink writes: a filesystem path or an open text handle.
SinkTarget = Union[str, Path, IO[str]]

#: How ``json`` spells the floats ``repr`` spells differently.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    """``x`` exactly as ``json`` writes it (``float.__repr__`` otherwise)."""
    text = repr(x)
    return _NON_FINITE.get(text, text)


class TelemetrySink:
    """Base class: counting, rotation and the manifest/footer frame.

    Subclasses implement ``_emit_header`` (once per part),
    ``_emit_control`` (manifest/footer rows) and ``_emit_data`` (one
    telemetry row; return False to skip it).

    Attributes:
        written: Data rows written (all parts).
        skipped: Data rows the format could not represent.
        by_kind: Written-row counts per ``kind`` discriminator.
        part_paths: Paths written so far (empty for handle targets).
    """

    #: newline= argument used when the sink opens its own files.
    _newline: Optional[str] = None

    def __init__(self, target: SinkTarget, max_rows_per_file: Optional[int] = None):
        if max_rows_per_file is not None and max_rows_per_file < 1:
            raise ReproError(
                f"max_rows_per_file must be >= 1, got {max_rows_per_file!r}"
            )
        self._owns_handle = isinstance(target, (str, Path))
        if self._owns_handle:
            base = Path(target)
            self._handle: IO[str] = open(base, "w", encoding="utf-8", newline=self._newline)
            self.part_paths: List[Path] = [base]
            self.max_rows_per_file = max_rows_per_file
        else:
            if max_rows_per_file is not None:
                raise ReproError("rotation requires a path target, not an open handle")
            self._handle = target
            self.part_paths = []
            self.max_rows_per_file = None
        self.written = 0
        self.skipped = 0
        self.by_kind: Dict[str, int] = {}
        self.closed = False
        self._manifest: Optional[Dict[str, object]] = None
        self._rows_in_part = 0
        self._emit_header()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def write_manifest(self, manifest: Dict[str, object]) -> None:
        """Write the run-manifest control row (kept for rotated parts)."""
        self._manifest = {"kind": "manifest", **manifest}
        self._emit_control(self._manifest)

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

    def write_samples(
        self,
        name: str,
        labels: Dict[str, str],
        times: Sequence[float],
        values: Sequence[float],
    ) -> None:
        """Write one series' samples (parallel ``times`` / ``values``).

        Equivalent, byte for byte and counter for counter, to one
        :meth:`write` of ``{"kind": "sample", "name": name, "labels":
        labels, "time": t, "value": v}`` per sample — which is what this
        default does; a format may override it to encode the part of the
        row that is constant across the series once.
        """
        for t, v in zip(times, values):
            self.write(
                {"kind": "sample", "name": name, "labels": labels, "time": t, "value": v}
            )

    def write_footer(self, footer: Dict[str, object]) -> None:
        """Write the run-footer control row (into the last part)."""
        self._emit_control({"kind": "footer", **footer})

    def flush(self) -> None:
        """Flush the underlying handle."""
        self._handle.flush()

    def close(self) -> None:
        """Close the sink (owned handles are closed, borrowed ones flushed)."""
        if self.closed:
            return
        if self._owns_handle:
            self._handle.close()
        else:
            self._handle.flush()
        self.closed = True

    # ------------------------------------------------------------------ #
    # rotation
    # ------------------------------------------------------------------ #
    def _rotate(self) -> None:
        self._handle.close()
        next_path = Path(f"{self.part_paths[0]}.{len(self.part_paths)}")
        self.part_paths.append(next_path)
        self._handle = open(next_path, "w", encoding="utf-8", newline=self._newline)
        self._rows_in_part = 0
        self._emit_header()
        if self._manifest is not None:
            self._emit_control(self._manifest)

    # ------------------------------------------------------------------ #
    # format hooks
    # ------------------------------------------------------------------ #
    def _emit_header(self) -> None:
        """Per-part prologue (CSV header row); default none."""

    def _emit_control(self, row: Dict[str, object]) -> None:
        raise NotImplementedError

    def _emit_data(self, row: Dict[str, object]) -> bool:
        raise NotImplementedError


class JsonlTelemetrySink(TelemetrySink):
    """One JSON object per line; every row kind is representable."""

    def _emit_control(self, row: Dict[str, object]) -> None:
        self._handle.write(encode_row(row))
        self._handle.write("\n")

    def _emit_data(self, row: Dict[str, object]) -> bool:
        self._handle.write(encode_row(row))
        self._handle.write("\n")
        return True

    def write_samples(
        self,
        name: str,
        labels: Dict[str, str],
        times: Sequence[float],
        values: Sequence[float],
    ) -> None:
        """The series-constant head of the line is encoded once; each
        float is then written as ``json`` writes it (``float.__repr__``,
        ``NaN``, ``Infinity``, ``-Infinity``).  Rotation is checked per
        row and the counters move exactly as under :meth:`write`."""
        if not times:
            return
        head = encode_row({"kind": "sample", "labels": labels, "name": name})[:-1]
        limit = self.max_rows_per_file
        for t, v in zip(times, values):
            if limit is not None and self._rows_in_part >= limit:
                self._rotate()
            self._handle.write(
                f'{head}, "time": {_json_float(t)}, "value": {_json_float(v)}}}\n'
            )
            self._rows_in_part += 1
        self.written += len(times)
        self.by_kind["sample"] = self.by_kind.get("sample", 0) + len(times)


class CsvTelemetrySink(TelemetrySink):
    """Flat CSV rows (:data:`~repro.obs.export.CSV_FIELDS` schema).

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


def open_sink(
    target: SinkTarget,
    fmt: str = "jsonl",
    max_rows_per_file: Optional[int] = None,
) -> TelemetrySink:
    """Build the sink for a format name (``"jsonl"`` or ``"csv"``)."""
    if fmt == "jsonl":
        return JsonlTelemetrySink(target, max_rows_per_file=max_rows_per_file)
    if fmt == "csv":
        return CsvTelemetrySink(target, max_rows_per_file=max_rows_per_file)
    raise ReproError(f"unknown telemetry sink format {fmt!r} (jsonl or csv)")
