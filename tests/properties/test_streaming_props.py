"""Property tests: a streamed run writes the rows an unstreamed run keeps.

Streaming must never change *what* a run reports, nor the order: every
row leaves when it happens, wherever it goes.  For any seeded run (plain
simulate-style request interleavings and chaos-style runs under a fault
storm) the data rows of the streamed JSONL artifact must equal, line for
line and in the same order, the rows a separate same-seed run with no
streamer leaves in its default memory sink followed by its end-of-run
:func:`~repro.obs.export.telemetry_rows`.  Data rows hold no wall-clock
value and a service numbers its own requests, so the two runs are exact
replays of each other.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.service import ServiceConfig, VoDService
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.obs.export import telemetry_rows
from repro.obs.sink import JsonlTelemetrySink, encode_row
from repro.obs.stream import StreamingTelemetry
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle

HOMES = ("U1", "U2", "U3", "U4", "U5", "U6")
TITLES = ("m1", "m2")
LINKS = tuple(link.name for link in build_grnet_topology().links())
DRAIN_S = 4 * 3600.0


def build_service():
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    config = ServiceConfig(
        cluster_mb=100.0,
        snmp_period_s=300.0,
        use_reported_stats=False,
        observability=True,
        telemetry_period_s=120.0,
    )
    service = VoDService(Simulator(start_time=8 * 3600.0), topology, config)
    service.seed_title("U4", VideoTitle("m1", size_mb=300.0, duration_s=1_800.0))
    service.seed_title("U2", VideoTitle("m2", size_mb=200.0, duration_s=1_200.0))
    return service


def streamed_and_unstreamed(run):
    """Drive ``run`` twice on fresh services: once with nothing attached
    (its memory sink's rows, then its end-of-run rows), once streamed to
    JSONL.  Both as the lines the JSONL sink writes, in order."""
    reference = build_service()
    reference.start()
    run(reference)
    unstreamed = [
        encode_row(row)
        for row in [
            *reference.telemetry.sink.rows,
            *telemetry_rows(reference.obs, reference.open_spans.values()),
        ]
    ]
    service = build_service()
    out = io.StringIO()
    streamer = StreamingTelemetry(service, JsonlTelemetrySink(out))
    streamer.start()
    service.start()
    run(service)
    footer = streamer.finish()
    lines = out.getvalue().splitlines()
    assert json.loads(lines[0])["kind"] == "manifest"
    assert json.loads(lines[-1])["kind"] == "footer"
    return lines[1:-1], unstreamed, footer


requests = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1_200.0, allow_nan=False),
        st.integers(min_value=0, max_value=len(HOMES) - 1),
        st.integers(min_value=0, max_value=len(TITLES) - 1),
    ),
    min_size=1,
    max_size=8,
)


def replay(arrivals):
    """The run function submitting ``arrivals`` and draining the service."""

    def run(service):
        now = service.sim.now
        for index, (gap_s, home, title) in enumerate(arrivals):
            now += gap_s
            service.sim.run(until=now)
            service.request_by_home(
                HOMES[home], TITLES[title], f"c{index}"
            )
        service.sim.run(until=now + DRAIN_S)

    return run


@given(requests)
@settings(max_examples=15, deadline=None)
def test_streamed_rows_match_buffered_export_for_simulate_runs(arrivals):
    streamed, unstreamed, footer = streamed_and_unstreamed(replay(arrivals))
    assert streamed == unstreamed
    # Every finished span left when it closed, not with the end-of-run rows.
    spans = [row for row in map(json.loads, streamed) if row["kind"] == "span"]
    finished = sum(1 for row in spans if row["finished_at"] is not None)
    assert footer["spans_flushed"] == finished


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_streamed_rows_match_buffered_export_for_chaos_runs(seed):
    schedule = FaultSchedule.seeded(
        seed,
        duration_s=2 * 3600.0,
        link_names=LINKS,
        server_uids=HOMES,
        link_flap_rate_per_h=2.0,
        link_degrade_rate_per_h=2.0,
        server_crash_rate_per_h=1.0,
        disk_failure_rate_per_h=1.0,
        snmp_blackout_rate_per_h=0.5,
        mean_fault_duration_s=600.0,
    )

    def run(svc):
        injector = FaultInjector(svc, schedule)
        injector.start()
        now = svc.sim.now
        for index, home in enumerate(HOMES):
            svc.sim.run(until=now + index * 600.0)
            svc.request_by_home(home, TITLES[index % len(TITLES)], f"c{index}")
        svc.sim.run(until=now + DRAIN_S)

    streamed, unstreamed, _ = streamed_and_unstreamed(run)
    assert streamed == unstreamed
