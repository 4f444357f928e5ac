"""Property tests: streamed telemetry is content-identical to buffered.

The write-behind pipeline must never change *what* a run reports — only
*when* it leaves memory.  For any seeded run (plain simulate-style
request interleavings and chaos-style runs under a fault storm) the
multiset of data rows in the streamed JSONL artifact must equal the
:func:`~repro.obs.export.telemetry_rows` of a separate same-seed run with
no streamer, which keeps every span.  Data rows hold no wall-clock value
and a service numbers its own requests, so the two runs are exact
replays of each other.

Rings get ample capacity (no overflow) because the unstreamed run can
only see what a ring still holds, while streaming spills evictions;
equality over lossy rings is exactly the asymmetry the pipeline exists to
create.  The spill path has its own property instead: the same arrivals
streamed over tiny rings and over ample ones must leave the same
``sample`` and ``counter`` lines.
"""

import io
import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.service import ServiceConfig, VoDService
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.obs.export import telemetry_rows
from repro.obs.sink import JsonlTelemetrySink
from repro.obs.stream import StreamingTelemetry
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle

HOMES = ("U1", "U2", "U3", "U4", "U5", "U6")
TITLES = ("m1", "m2")
LINKS = tuple(link.name for link in build_grnet_topology().links())
DRAIN_S = 4 * 3600.0


def build_service(telemetry_capacity=4096):
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    config = ServiceConfig(
        cluster_mb=100.0,
        snmp_period_s=300.0,
        use_reported_stats=False,
        observability=True,
        telemetry_period_s=120.0,
        telemetry_capacity=telemetry_capacity,
    )
    service = VoDService(Simulator(start_time=8 * 3600.0), topology, config)
    service.seed_title("U4", VideoTitle("m1", size_mb=300.0, duration_s=1_800.0))
    service.seed_title("U2", VideoTitle("m2", size_mb=200.0, duration_s=1_200.0))
    return service


def canonical(rows):
    """Multiset of rows under the exact serialisation the sink uses."""
    return Counter(json.dumps(row, sort_keys=True) for row in rows)


def streamed_and_buffered(run):
    """Drive ``run`` twice on fresh services: once with nothing attached
    (its :func:`telemetry_rows`), once streamed to JSONL."""
    reference = build_service()
    reference.start()
    run(reference)
    buffered = canonical(
        telemetry_rows(reference.obs, reference.telemetry, reference.spans)
    )
    service = build_service()
    out = io.StringIO()
    streamer = StreamingTelemetry(service, JsonlTelemetrySink(out))
    streamer.start()
    service.start()
    run(service)
    streamer.finish()
    lines = out.getvalue().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["kind"] == "manifest"
    assert parsed[-1]["kind"] == "footer"
    streamed = Counter(
        line
        for line, row in zip(lines, parsed)
        if row["kind"] not in ("manifest", "footer")
    )
    return streamed, buffered, streamer


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
    streamed, buffered, streamer = streamed_and_buffered(replay(arrivals))
    assert streamed == buffered
    # Every finished span left through the live hook, not the final drain.
    finished = sum(1 for row in map(json.loads, streamed) if row["kind"] == "span")
    assert streamer.spans_flushed <= finished


@given(requests)
@settings(max_examples=10, deadline=None)
def test_spilled_samples_stream_the_same_lines_as_ample_rings(arrivals):
    def stream(telemetry_capacity):
        service = build_service(telemetry_capacity)
        out = io.StringIO()
        streamer = StreamingTelemetry(service, JsonlTelemetrySink(out))
        streamer.start()
        service.start()
        replay(arrivals)(service)
        streamer.finish()
        lines = Counter(
            line
            for line in out.getvalue().splitlines()
            if json.loads(line)["kind"] in ("sample", "counter")
        )
        return lines, streamer.samples_spilled

    spilling, spilled = stream(4)
    ample, unspilled = stream(4096)
    assert spilled > 0 and unspilled == 0
    assert spilling == ample


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

    streamed, buffered, _ = streamed_and_buffered(run)
    assert streamed == buffered
