"""Property-based tests: streaming-session bookkeeping invariants under
randomised network conditions and decision churn, and the engine-driven
transfer held to the polling loops it replaced (the test-only oracle in
``tests/core/_polling_session.py``), event for event and bit for bit."""

import dataclasses

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.client.requests import RequestStatus, VideoRequest
from repro.core.session import StreamingSession
from repro.core.vra import VraDecision
from repro.errors import RoutingError
from repro.network.flows import FlowManager
from repro.network.grnet import build_grnet_topology
from repro.network.routing.paths import Path
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.storage.video import VideoTitle
from tests.core._fake_failover import FakeFailover
from tests.core._polling_session import PollingSession

#: Candidate routes from U2 the decision stream cycles through.
ROUTES = [
    ("U2",),  # local
    ("U2", "U1"),
    ("U2", "U3", "U4"),
    ("U2", "U1", "U6", "U5"),
]

decision_streams = st.lists(
    st.integers(min_value=0, max_value=len(ROUTES) - 1), min_size=1, max_size=12
)
backgrounds = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=7,
    max_size=7,
)
video_sizes = st.floats(min_value=20.0, max_value=400.0, allow_nan=False)


def make_decision(route):
    return VraDecision(
        title_id="v",
        home_uid="U2",
        chosen_uid=route[-1],
        served_locally=len(route) == 1,
        path=Path(nodes=tuple(route), cost=float(len(route))),
    )


def run_session(choices, utilizations, size_mb):
    topology = build_grnet_topology()
    for link, u in zip(topology.links(), utilizations):
        link.set_background_mbps(u * link.capacity_mbps)
    sim = Simulator()
    flows = FlowManager(topology)
    video = VideoTitle("v", size_mb=size_mb, duration_s=600.0)
    request = VideoRequest(client_id="c", home_uid="U2", title_id="v", submitted_at=0.0)
    state = {"i": 0}

    def decide(cluster):
        route = ROUTES[choices[state["i"] % len(choices)]]
        state["i"] += 1
        return make_decision(route)

    session = StreamingSession(
        sim=sim,
        request=request,
        video=video,
        cluster_mb=50.0,
        decide=decide,
        flows=flows,
        servers={},
    )
    Process(sim, session.run())
    sim.run()
    return session.record, flows, sim


@given(decision_streams, backgrounds, video_sizes)
@settings(max_examples=60, deadline=None)
def test_all_bytes_delivered_exactly_once(choices, utilizations, size_mb):
    record, _, _ = run_session(choices, utilizations, size_mb)
    assert record.request.status is RequestStatus.COMPLETED
    assert sum(c.size_mb for c in record.clusters) == pytest_approx(size_mb)
    assert [c.index for c in record.clusters] == list(range(len(record.clusters)))


@given(decision_streams, backgrounds, video_sizes)
@settings(max_examples=60, deadline=None)
def test_no_leaked_reservations(choices, utilizations, size_mb):
    record, flows, _ = run_session(choices, utilizations, size_mb)
    assert record.completed
    assert flows.active_count == 0


@given(decision_streams, backgrounds, video_sizes)
@settings(max_examples=60, deadline=None)
def test_cluster_timeline_is_contiguous(choices, utilizations, size_mb):
    record, _, sim = run_session(choices, utilizations, size_mb)
    cursor = 0.0
    for cluster in record.clusters:
        assert cluster.start >= cursor - 1e-9
        assert cluster.end > cluster.start
        cursor = cluster.end
    assert record.completed_at == pytest_approx(record.clusters[-1].end)
    assert sim.now >= record.completed_at


@given(decision_streams, backgrounds, video_sizes)
@settings(max_examples=60, deadline=None)
def test_switch_count_matches_source_changes(choices, utilizations, size_mb):
    record, _, _ = run_session(choices, utilizations, size_mb)
    sources = [c.server_uid for c in record.clusters]
    changes = sum(1 for a, b in zip(sources, sources[1:]) if a != b)
    assert record.switch_count == changes
    assert [c.switched for c in record.clusters][0] is False


@given(decision_streams, backgrounds, video_sizes)
@settings(max_examples=60, deadline=None)
def test_startup_and_stall_are_consistent(choices, utilizations, size_mb):
    record, _, _ = run_session(choices, utilizations, size_mb)
    assert record.startup_delay_s == pytest_approx(
        record.clusters[0].end - record.request.submitted_at
    )
    assert record.stall_s >= 0.0
    # Total experience time >= pure playback time.
    video_playback = 600.0
    experienced = record.startup_delay_s + video_playback + record.stall_s
    assert record.clusters[-1].end <= experienced + 1e-6


def pytest_approx(value):
    import pytest

    return pytest.approx(value, rel=1e-9, abs=1e-6)


# ---------------------------------------------------------------------- #
# the transfer against the polling oracle
# ---------------------------------------------------------------------- #
class SlotServer:
    """Stream-slot bookkeeping of a video server, nothing else."""

    def __init__(self):
        self.active_streams = 0

    def begin_serving(self, title_id, cluster=None):
        self.active_streams += 1
        return self.active_streams

    def end_serving(self, lease):
        self.active_streams -= 1


class Control(FakeFailover):
    """Failover control for either session kind: indexes whatever the
    session tracks (a transfer, or the polling session itself) and
    preempts it through its own ``preempt(reason)``; a stall ends 15 s
    after it parks."""

    def __init__(self):
        super().__init__()
        self.tracked = {}
        self.preemptions = 0

    def track(self, item, decision=None):
        self.tracked[item] = None

    def untrack(self, item):
        self.tracked.pop(item, None)

    def preempt_all(self, reason):
        for item in list(self.tracked):
            item.preempt(reason)
            self.preemptions += 1


@dataclasses.dataclass
class World:
    sessions: list
    processes: list
    trace: list
    flows: FlowManager
    topology: object
    servers: dict
    control: object


def build_world(scenario, session_class, faults=()):
    """One simulated world running ``scenario`` with ``session_class``
    sessions; ``faults`` are ``(time, later, kind, target)`` entries."""
    topology = build_grnet_topology()
    links = list(topology.links())
    for link, u in zip(links, scenario["backgrounds"]):
        link.set_background_mbps(u * link.capacity_mbps)
    sim = Simulator()
    flows = FlowManager(topology)
    servers = {uid: SlotServer() for route in ROUTES for uid in route}
    control = Control() if scenario["supervised"] else None
    count = len(scenario["sessions"])
    sessions, processes = [None] * count, [None] * count

    for when, index, u in scenario["traffic"]:
        link = links[index]
        sim.schedule_at(
            float(when), link.set_background_mbps, u * link.capacity_mbps,
            name="traffic:test",
        )

    def fire(kind, target):
        if kind == "preempt":
            control.preempt_all("fault:test")
        elif processes[target % count] is not None:
            processes[target % count].poke()

    for when, later, kind, target in faults:
        if later:  # behind everything already queued at that instant
            sim.schedule_at(
                when, lambda k=kind, t=target: sim.schedule(0.0, fire, k, t, name="fault:late"),
                name="fault:test",
            )
        else:
            sim.schedule_at(when, fire, kind, target, name="fault:test")

    def spawn(number, spec):
        size_mb, bitrate, choices = spec["size_mb"], spec["bitrate"], spec["choices"]
        video = VideoTitle(f"v{number}", size_mb=size_mb, duration_s=size_mb * 8.0 / bitrate)
        request = VideoRequest(
            client_id=f"c{number}", home_uid="U2", title_id=video.title_id,
            submitted_at=sim.now,
        )
        state = {"i": 0}

        def decide(cluster):
            choice = choices[state["i"] % len(choices)]
            state["i"] += 1
            if choice < 0:
                raise RoutingError("no source right now")
            return make_decision(ROUTES[choice])

        session = session_class(
            sim=sim, request=request, video=video, cluster_mb=scenario["cluster_mb"],
            decide=decide, flows=flows, servers=servers,
            rate_update_period_s=scenario["period_s"], failover=control,
        )
        process = Process(sim, session.run(), name=f"session:{number}")
        if session_class is PollingSession:
            session.process = process
        sessions[number], processes[number] = session, process

    for number, spec in enumerate(scenario["sessions"]):
        sim.schedule_at(float(spec["start"]), spawn, number, spec, name="request:test")

    trace = []
    while len(trace) < 400_000:
        event = sim.step()
        if event is None:
            break
        trace.append((event.time, event.seq, event.name))
    else:  # pragma: no cover - a scenario that never drains is a bug
        raise AssertionError("scenario did not drain")
    return World(sessions, processes, trace, flows, topology, servers, control)


def outcome(session):
    record = session.record
    fields = dataclasses.asdict(record)
    request = fields.pop("request")
    return fields, request["status"], request["failure_reason"]


def assert_conserved(world, scenario):
    assert all(process.finished and process.error is None for process in world.processes)
    assert world.flows.active_count == 0
    assert all(link.reserved_mbps == 0.0 for link in world.topology.links())
    assert all(server.active_streams == 0 for server in world.servers.values())
    if world.control is not None:
        assert not world.control.tracked
    for session, spec in zip(world.sessions, scenario["sessions"]):
        if session.record.completed:
            delivered = sum(c.size_mb for c in session.record.clusters)
            assert delivered == pytest_approx(spec["size_mb"])


def resolve_faults(scenario):
    """Turn the drawn fault specs into absolute times, using a fault-free
    run for the instants that matter most: the ends of session 0's steps
    and of its clusters."""
    clean = build_world(scenario, StreamingSession)
    name = "delay:session:0"
    step_ends = [time for time, _, event_name in clean.trace if event_name == name]
    cluster_ends = [c.end for c in clean.sessions[0].record.clusters]
    horizon = clean.trace[-1][0] if clean.trace else 1.0
    faults = []
    for where, value, later, kind, target in scenario["faults"]:
        if kind == "preempt" and not scenario["supervised"]:
            continue  # nothing can preempt a session without a supervisor
        if where == "step" and step_ends:
            when = step_ends[int(value * len(step_ends)) % len(step_ends)]
        elif where == "cluster" and cluster_ends:
            when = cluster_ends[int(value * len(cluster_ends)) % len(cluster_ends)]
        else:
            when = value * horizon
        faults.append((when, later, kind, target))
    return faults


def check_against_oracle(scenario):
    """Run the scenario on both implementations; returns which listed
    exception applied (None: the runs had to be, and were, identical)."""
    faults = resolve_faults(scenario)
    new = build_world(scenario, StreamingSession, faults)
    old = build_world(scenario, PollingSession, faults)
    assert_conserved(new, scenario)
    poked = any(event_name.startswith("poke:") for _, _, event_name in new.trace)
    if not scenario["supervised"] and poked:
        # Listed exception: the oracle credits a poked step in full, so it
        # finishes with bytes it never moved; the transfer credits the
        # elapsed part and, alone on an unchanging network, cannot finish
        # earlier.
        steady = len(new.sessions) == 1 and not scenario["traffic"]
        if steady and new.sessions[0].record.completed:
            assert (
                new.sessions[0].record.completed_at
                >= old.sessions[0].record.completed_at - 1e-6
            )
        return "poked-without-supervisor"
    if any(session.stale_preempts for session in old.sessions):
        # Listed exception: the oracle carries a preempt reason that
        # arrived as a cluster completed into the next cluster and books a
        # failover that never happened; the transfer's reason dies with it.
        outages = any(c < 0 for spec in scenario["sessions"] for c in spec["choices"])
        preempts = sum(1 for fault in faults if fault[2] == "preempt")
        if len(new.sessions) == 1 and preempts == 1 and not outages:
            assert new.sessions[0].record.failover_count == 0
            assert old.sessions[0].record.failover_count <= 1
        return "preempt-at-cluster-end"
    assert new.trace == old.trace
    assert [outcome(s) for s in new.sessions] == [outcome(s) for s in old.sessions]
    if new.control is not None:
        assert new.control.preemptions == old.control.preemptions
        assert new.control.stalls == old.control.stalls
    assert_conserved(old, scenario)
    return None


session_specs = st.fixed_dictionaries({
    "start": st.integers(min_value=0, max_value=900),
    "size_mb": st.sampled_from([20.0, 30.0, 50.0, 75.0, 120.0]),
    "bitrate": st.sampled_from([0.5, 1.0, 1.5, 2.5]),
    # -1 is a routing outage at that decision; at least one route follows.
    "choices": st.lists(
        st.integers(min_value=-1, max_value=len(ROUTES) - 1), max_size=8
    ).flatmap(
        lambda head: st.integers(min_value=0, max_value=len(ROUTES) - 1).map(
            lambda last: head + [last]
        )
    ),
})
#: 0.0 and 1.0 are drawn often: an idle path and a saturated one (floor crawl).
utilizations = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
)
fault_specs = st.tuples(
    st.sampled_from(["at", "step", "cluster"]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
    st.booleans(),
    st.sampled_from(["preempt", "preempt", "poke"]),
    st.integers(min_value=0, max_value=2),
)
scenarios = st.fixed_dictionaries({
    "supervised": st.booleans(),
    # Shorter than a step, about a cluster, and longer than any cluster.
    "period_s": st.sampled_from([7.5, 60.0, 240.0, 50_000.0]),
    "cluster_mb": st.sampled_from([10.0, 25.0, 50.0]),
    "backgrounds": st.lists(utilizations, min_size=7, max_size=7),
    "traffic": st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4_000),
            st.integers(min_value=0, max_value=6),
            utilizations,
        ),
        max_size=6,
    ),
    "sessions": st.lists(session_specs, min_size=1, max_size=3),
    "faults": st.lists(fault_specs, max_size=4),
})


@given(scenarios)
@settings(max_examples=200, deadline=None)
def test_transfer_matches_the_polling_oracle(scenario):
    event(f"listed exception: {check_against_oracle(scenario)}")


def one_session_scenario(**overrides):
    scenario = {
        "supervised": True, "period_s": 60.0, "cluster_mb": 25.0,
        "backgrounds": [0.2] * 7, "traffic": [],
        "sessions": [{"start": 0, "size_mb": 75.0, "bitrate": 1.0, "choices": [2, 3]}],
        "faults": [],
    }
    scenario.update(overrides)
    return scenario


def test_the_listed_exceptions_are_reached_and_nothing_else_is_excused():
    # A preemption in the middle of a step, at the end of one, and an
    # external poke under a supervisor: all identical to the oracle.
    for fault in (
        ("at", 0.4, False, "preempt", 0),
        ("step", 0.1, False, "preempt", 0),
        ("step", 0.1, True, "preempt", 0),
        ("cluster", 0.0, True, "preempt", 0),
        ("at", 0.4, False, "poke", 0),
    ):
        assert check_against_oracle(one_session_scenario(faults=[fault])) is None
    # The two bugs the oracle keeps.
    assert (
        check_against_oracle(one_session_scenario(faults=[("cluster", 0.0, False, "preempt", 0)]))
        == "preempt-at-cluster-end"
    )
    assert (
        check_against_oracle(
            one_session_scenario(supervised=False, faults=[("at", 0.4, False, "poke", 0)])
        )
        == "poked-without-supervisor"
    )
