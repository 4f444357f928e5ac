"""Write-behind streaming of one run's telemetry.

:class:`StreamingTelemetry` couples a running
:class:`~repro.core.service.VoDService` to a
:class:`~repro.obs.sink.TelemetrySink`:

- the run manifest is written first (config and its hash, seed,
  topology, code version) so every artifact is self-describing;
- session spans are written once, as a ``span`` row, the moment they
  close (via the service's ``on_span_finished`` slot), and dropped from
  ``service.spans``;
- sampler rings spill evicted samples to the sink instead of discarding
  them (via :meth:`TelemetrySampler.set_spill`);
- :meth:`finish` drains whatever is still live (ring contents, counter
  totals, histogram summaries, still-open spans) through
  :func:`~repro.obs.export.telemetry_rows`, writes the footer (row
  totals, wall time, peak RSS: the only wall-clock values in the stream)
  and closes the sink.

The streamed data rows are, as a multiset, the ``telemetry_rows`` of a
same-seed run with no streamer, while memory stays O(active sessions +
ring capacity).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict
from typing import Dict, List, Optional

from repro.obs.export import telemetry_rows
from repro.obs.sink import TelemetrySink
from repro.obs.spans import SessionSpan

try:  # pragma: no cover - always present on POSIX
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]

#: Manifest layout version; bump on incompatible schema changes.
MANIFEST_SCHEMA = 3


def peak_rss_kb() -> float:
    """Peak resident set size of this process in KiB (0.0 if unknown)."""
    if resource is None:
        return 0.0
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on Linux
        peak /= 1024.0
    return peak


def config_hash(config) -> str:
    """sha256 over the canonical JSON of a :class:`ServiceConfig`."""
    canonical = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def topology_fingerprint(topology) -> Dict[str, object]:
    """Node/link counts plus a sha256 over the wiring and capacities."""
    shape = {
        "nodes": sorted(topology.node_uids()),
        "links": sorted(
            (link.a_uid, link.b_uid, link.capacity_mbps) for link in topology.links()
        ),
    }
    digest = hashlib.sha256(
        json.dumps(shape, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "name": topology.name,
        "node_count": topology.node_count,
        "link_count": topology.link_count,
        "hash": digest,
    }


def run_manifest(
    service,
    seed: Optional[int] = None,
    label: Optional[str] = None,
) -> Dict[str, object]:
    """The self-describing header row framing one run's telemetry."""
    import repro

    config = service.config
    return {
        "schema": MANIFEST_SCHEMA,
        "code_version": repro.__version__,
        "label": label,
        "seed": seed,
        "config_hash": config_hash(config),
        "config": asdict(config),
        "topology": topology_fingerprint(service.topology),
    }


class StreamingTelemetry:
    """Drains one service's telemetry into a sink, behind the run.

    Args:
        service: The (observability-enabled) service under measurement.
        sink: Where rows go; closed by :meth:`finish`.
        seed: Recorded in the manifest (the run's RNG seed, if any).
        label: Free-form run label recorded in the manifest.
    """

    def __init__(
        self,
        service,
        sink: TelemetrySink,
        *,
        seed: Optional[int] = None,
        label: Optional[str] = None,
    ):
        self._service = service
        #: The sink this run streams into.
        self.sink = sink
        self._seed = seed
        self._label = label
        self._wall_start: Optional[float] = None
        self._started = False
        self._finished = False
        self.spans_flushed = 0
        self.samples_spilled = 0
        self.peak_resident_rows = 0
        self.footer: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Write the manifest and install the span and spill hooks."""
        if self._started:
            return
        self._started = True
        self._wall_start = time.perf_counter()
        self.sink.write_manifest(
            run_manifest(self._service, seed=self._seed, label=self._label)
        )
        self._service.on_span_finished = self._span_finished
        if self._service.telemetry is not None:
            self._service.telemetry.set_spill(self._spill)

    def finish(self) -> Dict[str, object]:
        """Drain everything still live, write the footer, close the sink.

        Rows leave in :func:`~repro.obs.export.telemetry_rows`' order.
        Ring contents go through :meth:`TelemetrySink.write_samples`, one
        call per series (the same rows ``telemetry_rows`` would yield for
        the sampler, a line each); counters, histograms and still-open
        spans go through :meth:`TelemetrySink.write`.
        """
        if self._finished:
            return self.footer or {}
        if not self._started:
            self.start()
        self._finished = True
        service = self._service
        self._note_resident()
        if service.telemetry is not None:
            for (name, labels), series in sorted(service.telemetry.series().items()):
                self.sink.write_samples(
                    name, dict(labels), series.times(), series.values()
                )
        for row in telemetry_rows(service.obs, None, service.spans):
            self.sink.write(row)
        self.footer = self._build_footer()
        self.sink.write_footer(self.footer)
        self.sink.close()
        service.on_span_finished = None
        if service.telemetry is not None:
            service.telemetry.set_spill(None)
        return self.footer

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    def _span_finished(self, span: SessionSpan) -> None:
        self.sink.write({"kind": "span", **span.to_dict()})
        self.spans_flushed += 1
        try:
            self._service.spans.remove(span)
        except ValueError:
            pass
        self._note_resident()

    def _spill(
        self,
        name: str,
        labels: Dict[str, str],
        times: List[float],
        values: List[float],
    ) -> None:
        """Ring-overflow hook: the evicted samples of one series go to the
        sink as the rows the final drain would have written for them."""
        self.sink.write_samples(name, labels, times, values)
        self.samples_spilled += len(times)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _note_resident(self) -> None:
        resident = len(self._service.spans)
        telemetry = self._service.telemetry
        if telemetry is not None:
            resident += telemetry.resident_samples()
        if resident > self.peak_resident_rows:
            self.peak_resident_rows = resident

    def _build_footer(self) -> Dict[str, object]:
        service = self._service
        wall = time.perf_counter() - (self._wall_start or time.perf_counter())
        return {
            **self.sink.totals(),
            "spans_flushed": self.spans_flushed,
            "samples_spilled": self.samples_spilled,
            "peak_resident_rows": self.peak_resident_rows,
            "sim_time_end": service.sim.now,
            "events_fired": service.sim.events_fired,
            "wall_time_s": wall,
            "peak_rss_kb": peak_rss_kb(),
        }
