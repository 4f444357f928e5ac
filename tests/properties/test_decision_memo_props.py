"""Property tests: the flash-crowd fast path is invisible in outcomes.

The epoch memo and the load-leveling admission queue are pure
performance machinery: with the memo on, every session record must stay
byte-identical to a reference-path run (``compiled_routing=False``: no
memo at all) of the same interleaving of requests,
link flaps, server crashes, traffic shifts and SNMP blackouts — under
any combination of the resilience knobs.  Two ops flush the memo
with no session running: a ``crash`` step (a server crash or recovery
publishes availability) and a ``blackout`` step followed by
time (the staleness guard's flip calls ``touch_links``); with the queue on but
under-loaded (drain quota never exhausted) the front-end must fall
through to the exact legacy admission path; and an over-loaded queue
must shed *deterministically* — the same arrival sequence sheds the
same requests on every replay, because the shed set is a pure function
of arrivals (ISSUE 6's "instead of timing out mid-decision" contract).

A second, session-free property drives the decision pipeline alone:
whole-title and per-cluster decides (a partial copy covers the first
cluster) between publishes of every flush kind — an SNMP round, a link
flip, stream slots taken and released, a server crash, a title added or
withdrawn — a staleness blackout, and a policy swap and its restore.
The memo-on service must answer every decide as the memo-off one does
(every decision field, failures included), never replay a decide that
raised, and read the same on every ``vra.*`` instrument.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.selection import MinHopSelection
from repro.core.service import ServiceConfig, VoDService
from repro.errors import ReproError
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.placement import PlacementConfig
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle
from tests.decide_outcome import decide_outcome

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
    # Two holders each, so a crash or recovery of one changes which
    # holder a decision picks, not whether there is one.
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
        # Bare decisions, asked twice: sessions flush the memo's decisions
        # with every stream they start, so these are the calls it answers —
        # the second from the first, and the first from an earlier probe's
        # unless a step in between flushed it.
        home, title = HOMES[step[1] % len(HOMES)], TITLES[step[2] % len(TITLES)]
        for _ in range(2):
            # Decisions compare by value: choice, path, weight table,
            # polled-out holders, candidate count, degraded stamp.  The
            # first cluster's decision has its own key while a partial
            # copy covers it.
            service.probes.append(decide_outcome(service, home, title))
            service.probes.append(decide_outcome(service, home, title, 0))
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
    """Every ``vra.*`` instrument a decision feeds: a replay must leave
    each reading what a VRA run would."""
    obs = service.obs
    return (
        obs.counter("vra.decisions").value,
        obs.counter("vra.local_serves").value,
        obs.histogram("vra.candidates").count,
        obs.histogram("vra.candidates").total,
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


#: Every knob whose transitions (staleness flips, failover re-decisions,
#: retries, fractional holders and their per-cluster holder sets) have to
#: flush the memo.  The
#: staleness guard needs the reported-stats arm.  ``steps`` keeps both
#: session-free flushers in the mix: ``crash`` (availability publishes)
#: and ``blackout`` (staleness flips, so ``touch_links``).
knobs = st.fixed_dictionaries(
    {
        "use_reported_stats": st.booleans(),
        "session_failover": st.booleans(),
        "max_stats_age_s": st.sampled_from([None, 400.0]),
        "retry_attempts": st.sampled_from([0, 2]),
        "placement": st.sampled_from([
            PlacementConfig(),
            PlacementConfig(kind="partial"),
            PlacementConfig(kind="prefix", prefix_minutes=5.0),
        ]),
    }
).map(lambda k: k if k["use_reported_stats"] else {**k, "max_stats_age_s": None})


QUIET = {
    "use_reported_stats": False,
    "session_failover": False,
    "max_stats_age_s": None,
    "retry_attempts": 0,
    "placement": PlacementConfig(),
}


@given(steps, knobs)
@example(
    # A holder crashes and recovers with nothing else in the network
    # moving: each flip bumps the availability version, so each probe
    # after one must re-decide rather than replay.
    interleaving=[
        (0.0, ("probe", 0, 0)),
        (0.0, ("crash", 4)),
        (0.0, ("probe", 0, 0)),
        (400.0, ("crash", 4)),
        (0.0, ("probe", 0, 0)),
    ],
    config=QUIET,
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
@example(
    # A second request makes m1 hot at U1, which cuts a one-cluster
    # prefix: U1 then holds cluster 0 (served locally at U1, maybe
    # fetched from U1 by U3) but not the title, so the same instant's
    # whole-title and cluster-0 decisions differ and must not share a key.
    interleaving=[
        (0.0, ("request", 0, 0)),
        (0.0, ("request", 0, 0)),
        (10.0, ("probe", 0, 0)),
        (0.0, ("probe", 2, 0)),
    ],
    config={**QUIET, "placement": PlacementConfig(kind="prefix", prefix_minutes=5.0)},
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
        return service_fingerprint(service), shed, service.admission_queue.stats

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


# ---------------------------------------------------------------------- #
# the decision pipeline alone
# ---------------------------------------------------------------------- #
M1 = VideoTitle("m1", size_mb=300.0, duration_s=1_800.0)  # three clusters
TRAFFIC_LABELS = ("8am", "10am", "4pm", "6pm")
#: How a decide step asks: whole title by two arguments, by an explicit
#: None, or one cluster (only cluster 0 is covered by U1's partial copy).
FORMS = ("whole", None, 0, 1, 2)
#: Decided after every step: homes holding nothing, both titles, the
#: whole-title forms, the covered cluster and an uncovered one.
SWEEP = tuple(
    (home, title, form)
    for home in ("U1", "U3", "U6")
    for title in TITLES
    for form in ("whole", None, 0, 2)
)


def build_decider(compiled_routing, reported, load_in_vra):
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    service = VoDService(
        Simulator(),
        topology,
        ServiceConfig(
            cluster_mb=100.0,
            disk_count=2,
            disk_capacity_mb=1_000.0,
            max_streams=3,
            snmp_period_s=300.0,
            use_reported_stats=reported,
            max_stats_age_s=400.0 if reported else None,
            use_server_load_in_vra=load_in_vra,
            compiled_routing=compiled_routing,
            **OBSERVED,
        ),
    )
    for uid in ("U4", "U5"):
        service.seed_title(uid, M1)
    for uid in ("U2", "U6"):
        service.seed_title(uid, VideoTitle("m2", size_mb=200.0, duration_s=1_200.0))
    # U1 holds m1's first cluster only: a partial holder of cluster 0.
    service.servers["U1"].array.store_segment(M1, 1.0 / 3.0)
    service.database.add_title_to_server("U1", "m1", fraction=1.0 / 3.0)
    service.start()
    service.leases = {}
    service.builtin = service.vra
    return service


def decide_step(service, home, title, form):
    """The decide, asked twice: a replay (or, after a raise, a second
    cold run — a raised decide is never replayed)."""
    args = (home, title) if form == "whole" else (home, title, form)
    memo = service.vra.cache if service.vra is service.builtin else None
    outcomes = []
    for _ in range(2):
        before = memo.decision_stats if memo is not None else None
        try:
            outcome = service.decide(*args)
        except ReproError as exc:
            outcome = (type(exc).__name__, str(exc))
            if memo is not None:
                after = memo.decision_stats
                assert (after.hits, after.misses) == (before.hits, before.misses + 1)
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1]
    service.probes.append(outcomes[0])


def pipeline_step(service, step):
    kind = step[0]
    if kind == "decide":
        _, home, title, form = step
        decide_step(service, HOMES[home], TITLES[title], FORMS[form])
    elif kind == "round":  # traffic moves, then two SNMP periods pass
        apply_traffic_sample(service.topology, TRAFFIC_LABELS[step[1]])
        service.sim.run(until=service.sim.now + 600.0)
    elif kind == "flip":
        link = service.topology.link_named(LINKS[step[1]])
        link.online = not link.online
    elif kind == "slots":  # take every stream slot, or give them back
        server = service.servers[HOMES[step[1]]]
        held = service.leases.pop(server.node_uid, None)
        if held is None:
            admission = server.admission
            service.leases[server.node_uid] = [
                admission.admit() for _ in range(admission.max_streams - admission.active_count)
            ]
        else:
            for lease in held:
                server.end_serving(lease)
    elif kind == "crash":
        server = service.servers[HOMES[step[1]]]
        server.online = not server.online
    elif kind == "title":  # advertise or withdraw a (full) copy
        uid, title = HOMES[step[1]], TITLES[step[2]]
        if service.database.holds_title(uid, title):
            service.database.remove_title_from_server(uid, title)
        else:
            service.database.add_title_to_server(uid, title)
    elif kind == "blackout":
        collector = service.statistics
        collector.restore() if collector.blacked_out else collector.blackout()
    else:  # swap: another policy over the VRA, or the built-in one back
        swapped = service.vra is not service.builtin
        service.vra = service.builtin if swapped else MinHopSelection(service.topology)


def index(top):
    return st.integers(min_value=0, max_value=top - 1)


pipeline_steps = st.lists(
    st.one_of(
        st.tuples(st.just("decide"), index(len(HOMES)), index(len(TITLES)), index(len(FORMS))),
        st.tuples(st.just("round"), index(len(TRAFFIC_LABELS))),
        st.tuples(st.just("flip"), index(len(LINKS))),
        st.tuples(st.just("slots"), index(len(HOMES))),
        st.tuples(st.just("crash"), index(len(HOMES))),
        st.tuples(st.just("title"), index(len(HOMES)), index(len(TITLES))),
        st.tuples(st.just("blackout")),
        st.tuples(st.just("swap")),
    ),
    min_size=1,
    max_size=30,
)


@given(pipeline_steps, st.booleans(), st.booleans())
@example(
    # A blackout ages every link out (decisions stamped degraded), a
    # stream-slot fill flips the partial holder's cluster-0 answer, and a
    # swap and its restore bracket a crash the memo must not miss.
    steps=[
        ("decide", 2, 0, 2), ("blackout",), ("round", 1), ("round", 2),
        ("decide", 2, 0, 0), ("decide", 2, 0, 0), ("slots", 0), ("decide", 2, 0, 2),
        ("swap",), ("crash", 3), ("decide", 1, 0, 0), ("swap",), ("decide", 1, 0, 1),
    ],
    reported=True,
    load_in_vra=True,
)
@example(
    # Every holder of m2 withdrawn, then one re-advertised: a decide that
    # raises, twice, then one that routes.
    steps=[
        ("decide", 0, 1, 0), ("title", 1, 1), ("title", 5, 1), ("decide", 0, 1, 0),
        ("decide", 0, 1, 1), ("title", 5, 1), ("decide", 0, 1, 1), ("flip", 0),
        ("decide", 0, 1, 0),
    ],
    reported=False,
    load_in_vra=False,
)
@settings(max_examples=40, deadline=None)
def test_pipeline_memo_answers_what_the_reference_path_does(steps, reported, load_in_vra):
    plain, memoed = (
        build_decider(compiled, reported, load_in_vra) for compiled in (False, True)
    )
    for service in (plain, memoed):
        service.probes = []
        for step in steps:
            pipeline_step(service, step)
            for probe in SWEEP:  # what every input move may have changed
                decide_step(service, *probe)
    assert memoed.probes == plain.probes
    assert memoed.builtin.decision_count == plain.builtin.decision_count
    assert decision_instruments(memoed) == decision_instruments(plain)
    obs = memoed.obs
    assert (
        obs.counter("decision.hits").value + obs.counter("decision.misses").value
        == obs.counter("vra.decisions").value
    )
    assert plain.obs.counter("decision.hits").value == 0
    assert plain.obs.counter("decision.misses").value == 0
