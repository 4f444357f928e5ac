"""Property tests: the flash-crowd fast path is invisible in outcomes.

The epoch memo and the load-leveling admission queue are pure
performance machinery: with the memo on, every session record must stay
byte-identical to a reference-path run (``compiled_routing=False``: no
memo at all) of the same interleaving of requests,
link flaps, server crashes, traffic shifts and SNMP blackouts — under
any combination of the resilience knobs, whose breaker and staleness
transitions the memo's token has to cover; with the queue on but
under-loaded (drain quota never exhausted) the front-end must fall
through to the exact legacy admission path; and an over-loaded queue
must shed *deterministically* — the same arrival sequence sheds the
same requests on every replay, because the shed set is a pure function
of arrivals (ISSUE 6's "instead of timing out mid-decision" contract).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.service import ServiceConfig, VoDService
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.placement import PlacementConfig
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle

HOMES = ("U1", "U2", "U3", "U4", "U5", "U6")
TITLES = ("m1", "m2")
LINKS = tuple(link.name for link in build_grnet_topology().links())
DRAIN_S = 6 * 3600.0  # sim time to let every surviving session finish


def build_service(**overrides):
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    config = ServiceConfig(
        **{
            "cluster_mb": 100.0,
            "disk_count": 2,
            "disk_capacity_mb": 1_000.0,
            "snmp_period_s": 300.0,
            "use_reported_stats": False,
            **overrides,
        }
    )
    service = VoDService(Simulator(), topology, config)
    # Two holders each, so a server breaker's holder filter has a choice
    # to change (it never filters down to nothing).
    for uid in ("U4", "U5"):
        service.seed_title(uid, VideoTitle("m1", size_mb=300.0, duration_s=1_800.0))
    for uid in ("U2", "U6"):
        service.seed_title(uid, VideoTitle("m2", size_mb=200.0, duration_s=1_200.0))
    service.start()
    return service


def apply_step(service, step, request_counter):
    kind = step[0]
    if kind == "request":
        _, home_index, title_index = step
        client_id = f"c{next(request_counter)}"
        service.request_by_home(
            HOMES[home_index % len(HOMES)],
            TITLES[title_index % len(TITLES)],
            client_id,
        )
    elif kind == "flap":
        link = service.topology.link_named(LINKS[step[1] % len(LINKS)])
        link.online = not link.online
    elif kind == "crash":
        server = service.servers[HOMES[step[1] % len(HOMES)]]
        server.online = not server.online
    elif kind == "blackout":  # what an injected SnmpBlackout does, toggled
        collector = service.statistics
        collector.restore() if collector.blacked_out else collector.blackout()
    elif kind == "probe":
        # Bare decisions, asked twice: sessions move the memo's token with
        # every stream they start, so these are the calls it answers — the
        # second from the first, and the first from an earlier probe's
        # unless a step in between moved the token.
        home, title = HOMES[step[1] % len(HOMES)], TITLES[step[2] % len(TITLES)]
        for _ in range(2):
            outcome = service.try_decide(home, title)
            # Decisions compare by value: choice, path, weight table,
            # polled-out holders, candidate count, degraded stamp.
            service.probes.append((outcome.outcome, outcome.reason, outcome.decision))
    else:  # traffic
        _, link_index, fraction = step
        link = service.topology.link_named(LINKS[link_index % len(LINKS)])
        link.set_background_mbps(fraction * link.capacity_mbps)


def run_interleaving(service, steps):
    """Replay (gap_s, step) pairs on the sim clock, then drain sessions."""
    counter = iter(range(1_000_000))
    service.probes = []
    now = service.sim.now
    for gap_s, step in steps:
        now += gap_s
        service.sim.run(until=now)
        apply_step(service, step, counter)
    service.sim.run(until=now + DRAIN_S)
    return service


def record_fingerprint(record):
    """Every observable field of one session record (request ids are a
    process-global counter, so sessions are keyed by client id)."""
    request = record.request
    return (
        request.client_id,
        request.home_uid,
        request.title_id,
        request.submitted_at,
        request.status.value,
        request.failure_reason,
        record.startup_delay_s,
        record.stall_s,
        record.switch_count,
        record.qos_violation_count,
        record.completed_at,
        record.retry_count,
        record.retry_wait_s,
        record.recovered,
        record.admission_wait_s,
        tuple(
            (
                cluster.index,
                cluster.server_uid,
                cluster.path_nodes,
                cluster.rate_mbps,
                cluster.start,
                cluster.end,
                cluster.size_mb,
                cluster.switched,
                cluster.qos_violated,
            )
            for cluster in record.clusters
        ),
    )


def service_fingerprint(service):
    return tuple(record_fingerprint(record) for record in service.sessions)


#: Telemetry on, sampled rarely: the property reads instruments, not series.
OBSERVED = {"observability": True, "telemetry_period_s": 3_600.0}


def decision_instruments(service):
    """Every ``vra.*`` instrument a decision feeds (wall-clock histograms
    by count only): a replay must leave each reading what a VRA run would."""
    obs = service.obs
    return (
        obs.counter("vra.decisions").value,
        obs.counter("vra.local_serves").value,
        obs.histogram("vra.candidates").count,
        obs.histogram("vra.candidates").total,
        obs.histogram("vra.decision_latency_ms").count,
    )


steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=900.0, allow_nan=False),
        st.one_of(
            st.tuples(
                st.just("request"),
                st.integers(min_value=0, max_value=len(HOMES) - 1),
                st.integers(min_value=0, max_value=len(TITLES) - 1),
            ),
            st.tuples(
                st.just("flap"), st.integers(min_value=0, max_value=len(LINKS) - 1)
            ),
            st.tuples(
                st.just("crash"), st.integers(min_value=0, max_value=len(HOMES) - 1)
            ),
            st.tuples(st.just("blackout")),
            st.tuples(
                st.just("probe"),
                st.integers(min_value=0, max_value=len(HOMES) - 1),
                st.integers(min_value=0, max_value=len(TITLES) - 1),
            ),
            st.tuples(
                st.just("traffic"),
                st.integers(min_value=0, max_value=len(LINKS) - 1),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
        ),
    ),
    min_size=1,
    max_size=14,
)


#: Every knob whose transitions (breaker trips and probes, staleness
#: flips, failover re-decisions, retries, fractional holders) have to move
#: the memo's token.  The staleness guard needs the reported-stats arm.
knobs = st.fixed_dictionaries(
    {
        "use_reported_stats": st.booleans(),
        "session_failover": st.booleans(),
        "breaker_threshold": st.sampled_from([0, 1, 2]),
        "max_stats_age_s": st.sampled_from([None, 400.0]),
        "retry_attempts": st.sampled_from([0, 2]),
        "placement": st.sampled_from([PlacementConfig(), PlacementConfig(kind="partial")]),
    }
).map(lambda k: k if k["use_reported_stats"] else {**k, "max_stats_age_s": None})


QUIET = {
    "use_reported_stats": False,
    "session_failover": False,
    "breaker_threshold": 0,
    "max_stats_age_s": None,
    "retry_attempts": 0,
    "placement": PlacementConfig(),
}


@given(steps, knobs)
@example(
    # A server breaker half-opens on its cooldown timer: U5 is let back
    # into the holder set with nothing else in the network moving.
    interleaving=[
        (0.0, ("crash", 4)),
        (0.0, ("crash", 4)),
        (0.0, ("probe", 0, 0)),
        (400.0, ("probe", 0, 0)),
    ],
    config={**QUIET, "breaker_threshold": 1},
)
@example(
    # Links age out during a blackout: the guard's periodic check flips
    # them stale (weights inflated, decisions stamped degraded) with no
    # SNMP round writing anything.
    interleaving=[
        (400.0, ("blackout",)),
        (0.0, ("probe", 0, 0)),
        (600.0, ("probe", 0, 0)),
    ],
    config={**QUIET, "use_reported_stats": True, "max_stats_age_s": 400.0},
)
@settings(max_examples=60, deadline=None)
def test_decision_memo_invisible_in_session_records(interleaving, config):
    plain = run_interleaving(
        build_service(compiled_routing=False, **OBSERVED, **config), interleaving
    )
    memoed = run_interleaving(
        build_service(**OBSERVED, **config), interleaving
    )
    assert service_fingerprint(memoed) == service_fingerprint(plain)
    assert memoed.probes == plain.probes
    assert memoed.vra.decision_count == plain.vra.decision_count
    assert decision_instruments(memoed) == decision_instruments(plain)
    obs = memoed.obs
    assert (
        obs.counter("decision.hits").value + obs.counter("decision.misses").value
        == obs.counter("vra.decisions").value
        == memoed.vra.decision_count
    )


@given(steps)
@settings(max_examples=25, deadline=None)
def test_underloaded_admission_queue_is_transparent(interleaving):
    # A drain quota far above any arrival burst: every offer lands in the
    # current tick with zero wait, which must fall through to the exact
    # legacy admission path.
    plain = run_interleaving(build_service(), interleaving)
    queued = run_interleaving(
        build_service(
            admission_queue_capacity=10_000,
            admission_rate_per_s=1e6,
        ),
        interleaving,
    )
    fingerprints = service_fingerprint(queued)
    assert fingerprints == service_fingerprint(plain)
    assert all(fp[14] == 0.0 for fp in fingerprints)  # admission_wait_s


@given(steps)
@settings(max_examples=15, deadline=None)
def test_overloaded_admission_queue_replays_deterministically(interleaving):
    def run_once():
        service = run_interleaving(
            build_service(
                    admission_queue_capacity=2,
                admission_rate_per_s=1.0 / 120.0,
                admission_tick_s=60.0,
            ),
            interleaving,
        )
        shed = frozenset(
            record.request.client_id
            for record in service.sessions
            if (record.request.failure_reason or "").startswith("admission-shed")
        )
        return service_fingerprint(service), shed, service.admission_queue.snapshot()

    first_prints, first_shed, first_snapshot = run_once()
    second_prints, second_shed, second_snapshot = run_once()
    assert second_prints == first_prints
    assert second_shed == first_shed
    assert second_snapshot == first_snapshot


def test_burst_sheds_beyond_capacity_deterministically():
    """Deterministic pin: a same-tick burst fills the drain quota, then
    the waiting room, then sheds — and every replay agrees on which
    client landed where."""

    def run_once():
        service = build_service(
            admission_queue_capacity=3,
            admission_rate_per_s=1.0 / 60.0,
            admission_tick_s=60.0,
        )
        for i in range(8):
            service.request_by_home("U1", "m1", f"burst{i}")
        service.sim.run(until=DRAIN_S)
        by_client = {
            record.request.client_id: record for record in service.sessions
        }
        return service, by_client

    service, by_client = run_once()
    shed = sorted(
        cid
        for cid, record in by_client.items()
        if (record.request.failure_reason or "").startswith("admission-shed")
    )
    delayed = sorted(
        cid for cid, record in by_client.items() if record.admission_wait_s > 0.0
    )
    # Quota of the first tick admits one immediately, three wait, four shed.
    assert delayed == ["burst1", "burst2", "burst3"]
    assert shed == ["burst4", "burst5", "burst6", "burst7"]
    stats = service.admission_queue.stats
    assert stats.immediate == 1 and stats.delayed == 3 and stats.shed == 4

    _, replay = run_once()
    assert {
        cid: (record.request.status.value, record.admission_wait_s)
        for cid, record in replay.items()
    } == {
        cid: (record.request.status.value, record.admission_wait_s)
        for cid, record in by_client.items()
    }
