"""Streaming of one run's telemetry into a sink.

:class:`StreamingTelemetry` couples a running
:class:`~repro.core.service.VoDService` to a
:class:`~repro.obs.sink.TelemetrySink`:

- the run manifest is written first (config and its hash, seed,
  topology, code version) so every artifact is self-describing;
- :meth:`~StreamingTelemetry.start` then writes through whatever rows
  the service's default memory sink already holds and points the run's
  one sink attribute (``service.telemetry.sink``) at the streamer's
  sink, so each sampler tick's ``sample`` rows and each span's ``span``
  row (written the moment it closes) land there as they happen;
- :meth:`~StreamingTelemetry.finish` writes what exists only at the end
  (counter totals, histogram summaries, still-open spans) through
  :func:`~repro.obs.export.telemetry_rows`, writes the footer (row
  totals, wall time, peak RSS: the only wall-clock values in the stream)
  and closes the sink.

The streamed data rows are, in order, the rows a same-seed run with no
streamer leaves in its default memory sink followed by its
``telemetry_rows``; the streamer holds nothing itself, and the service
holds only its open spans.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict
from typing import Dict, Optional

from repro.obs.export import telemetry_rows
from repro.obs.sink import MemoryTelemetrySink, TelemetrySink

try:  # pragma: no cover - always present on POSIX
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]

#: Manifest layout version; bump on incompatible schema changes.
MANIFEST_SCHEMA = 5


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
    """Streams one service's telemetry into a sink, as the run goes.

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
        self.footer: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Write the manifest and the rows the service already holds, and
        make this streamer's sink the run's sink."""
        if self._started:
            return
        self._started = True
        self._wall_start = time.perf_counter()
        self.sink.write_manifest(
            run_manifest(self._service, seed=self._seed, label=self._label)
        )
        telemetry = self._service.telemetry
        held = telemetry.sink
        if isinstance(held, MemoryTelemetrySink) and held is not self.sink:
            for row in held.rows:
                self.sink.write(row)
        telemetry.sink = self.sink

    def finish(self) -> Dict[str, object]:
        """Write the end-of-run rows and the footer, close the sink, and
        give the run a fresh memory sink.

        Counter totals, histogram summaries and still-open spans leave in
        :func:`~repro.obs.export.telemetry_rows`' order, through
        :meth:`TelemetrySink.write`.
        """
        if self._finished:
            return self.footer or {}
        if not self._started:
            self.start()
        self._finished = True
        service = self._service
        # Every request of an instrumented run has a span, and each left
        # as a row when it closed: all but the open ones were flushed.
        spans_flushed = (
            len(service.sessions) - len(service.open_spans) if service.obs.enabled else 0
        )
        for row in telemetry_rows(service.obs, service.open_spans.values()):
            self.sink.write(row)
        self.footer = self._build_footer(spans_flushed)
        self.sink.write_footer(self.footer)
        self.sink.close()
        # A run that goes on writes into a fresh memory sink, not a closed one.
        service.telemetry.sink = MemoryTelemetrySink()
        return self.footer

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _build_footer(self, spans_flushed: int) -> Dict[str, object]:
        service = self._service
        wall = time.perf_counter() - (self._wall_start or time.perf_counter())
        return {
            **self.sink.totals(),
            "spans_flushed": spans_flushed,
            "sim_time_end": service.sim.now,
            "events_fired": service.sim.events_fired,
            "wall_time_s": wall,
            "peak_rss_kb": peak_rss_kb(),
        }
