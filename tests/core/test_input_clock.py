"""The input clock in front of the epoch memo's token.

``VoDService.decide`` reads the four-counter token only when the input
clock moved since its last read; a replay is one int compare and one dict
probe.  The token stays the correctness contract, so every bump of a
token counter must tick the clock.  Pinned here:

* the kill-list: each tick site, made a no-op, breaks a lock-step
  differential against the reference path (``compiled_routing=False``,
  no memo) — or the test says why that site cannot be killed;
* the hit path is a probe: no token read while the clock stands, and
  every counter, instrument and trace row reads what it read when each
  replay paid for the token;
* the ground-truth path, the only one where link traffic is a token
  input;
* re-installing the built-in VRA re-attaches its memo.
"""

import pytest

from repro.baselines.selection import MinHopSelection
from repro.core.service import ServiceConfig, VoDService
from repro.database.records import LinkStats
from repro.database.store import ServiceDatabase
from repro.errors import ReproError
from repro.experiments.placement import session_fingerprint
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.network.link import STATE_CHANGE, TRAFFIC_CHANGE, Link
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.storage.video import VideoTitle
from tests.trace_rows import trace_rows

MOVIE = VideoTitle("movie", size_mb=600.0, duration_s=3_600.0)
#: Every home asks for the one title its two holders (U4, U5) serve.
PAIRS = tuple((home, "movie") for home in ("U1", "U2", "U3", "U4", "U5", "U6"))


def build(compiled_routing=True, tracer=None, **config):
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    service = VoDService(
        Simulator(),
        topology,
        ServiceConfig(compiled_routing=compiled_routing, **config),
        tracer=tracer,
    )
    service.seed_title("U4", MOVIE)
    service.seed_title("U5", MOVIE)
    service.start()
    return service


# ---------------------------------------------------------------------- #
# steps: each mutates one service; the lock-step applies it to both twins
# ---------------------------------------------------------------------- #
def samples(service, label):
    apply_traffic_sample(service.topology, label)
    return {
        link.name: LinkStats(link.used_mbps, link.utilization, service.sim.now)
        for link in service.topology.links()
    }


def report(label):
    """Admin writes, one ``update_link_stats`` per link."""

    def step(service):
        for name, stats in samples(service, label).items():
            service.database.update_link_stats(name, stats)

    return step


def report_round(label):
    """One collection round through ``update_link_stats_round``."""
    return lambda service: service.database.update_link_stats_round(
        samples(service, label)
    )


def traffic(label):
    """Live background traffic only (no database write)."""
    return lambda service: apply_traffic_sample(service.topology, label)


def withdraw(uid):
    return lambda service: service.database.remove_title_from_server(uid, "movie")


def advertise(uid):
    return lambda service: service.database.add_title_to_server(uid, "movie")


def fill(uid):
    """Take every stream slot of ``uid``: its poll answer flips to no."""

    def step(service):
        admission = service.servers[uid].admission
        for _ in range(admission.max_streams):
            admission.admit()

    return step


def cut(link_name):
    def step(service):
        service.topology.link_named(link_name).online = False

    return step


def shortcut(service):
    """A new link straight into the topology (no database entry)."""
    service.topology.add_link(Link("U2", "U5", 18.0, name="Patra-Xanthi"))


def run_until(time_s, collector=None):
    def step(service):
        if collector is not None:
            getattr(service.statistics, collector)()
        service.sim.run(until=time_s)

    return step


STALENESS = dict(snmp_period_s=60.0, max_stats_age_s=150.0)

#: site -> (scenario steps, config).  Every scenario passes as written and
#: fails once its site's tick is a no-op.
SCENARIOS = {
    "update_link_stats": ((report("8am"), report("4pm")), {}),
    "update_link_stats_round": ((report_round("8am"), report_round("4pm")), {}),
    # A stale-set flip writes nothing: only touch_links tells the clock.
    "touch_links": (
        (run_until(121.0), run_until(400.0, "blackout"), run_until(481.0, "restore")),
        STALENESS,
    ),
    "add_title_to_server": ((withdraw("U4"), advertise("U4")), {}),
    "remove_title_from_server": ((withdraw("U4"),), {}),
    "bump_availability": ((fill("U4"),), {}),
    "link_online_flip": ((cut("Thessaloniki-Athens"),), {}),
    "add_link": ((shortcut,), {"use_reported_stats": False}),
    "link_traffic": ((traffic("4pm"),), {"use_reported_stats": False}),
}


def answers(service):
    """What every pair decides now: chosen uid, path nodes and cost."""
    out = []
    for key in PAIRS:
        try:
            decision = service.decide(*key)
        except ReproError as error:
            out.append(type(error).__name__)
        else:
            out.append((decision.chosen_uid, decision.path.nodes, decision.cost))
    return out


def divergence(site):
    """Run the site's scenario on a memoized service and its reference
    twin in lock-step, deciding every pair twice between steps; return
    the first step index whose answers differ (None: they never do)."""
    steps, config = SCENARIOS[site]
    memoized, reference = build(True, **config), build(False, **config)
    for index in range(len(steps) + 1):
        expected = answers(reference)
        if answers(memoized) != expected or answers(memoized) != expected:
            return index
        if index < len(steps):
            steps[index](memoized)
            steps[index](reference)
    return None


def untick(monkeypatch, owner, name, clock_of, kind=None):
    """Make the tick inside ``owner.name`` a no-op: every call that moved
    ``clock_of(self)`` has its tick taken back (for ``_on_link_change``,
    only calls of ``kind``).  No scenario here nests one tick site in
    another, so this is exactly the site without its tick."""
    original = getattr(owner, name)

    def patched(self, *args, **kwargs):
        clock = clock_of(self)
        before = clock.value
        result = original(self, *args, **kwargs)
        if clock.value > before and (kind is None or args[0] == kind):
            clock.value -= 1
        return result

    monkeypatch.setattr(owner, name, patched)


def database_clock(database):
    return database._clock


#: site -> how to kill its tick.
KILLS = {
    "update_link_stats": (ServiceDatabase, "update_link_stats", database_clock),
    "update_link_stats_round": (ServiceDatabase, "update_link_stats_round", database_clock),
    "touch_links": (ServiceDatabase, "touch_links", database_clock),
    "add_title_to_server": (ServiceDatabase, "add_title_to_server", database_clock),
    "remove_title_from_server": (ServiceDatabase, "remove_title_from_server", database_clock),
    "bump_availability": (VoDService, "_bump_availability", lambda service: service._clock),
    "link_online_flip": (Topology, "_on_link_change", lambda topo: topo.clock, STATE_CHANGE),
    "add_link": (Topology, "add_link", lambda topo: topo.clock),
    "link_traffic": (
        Topology, "_on_link_change", lambda topo: topo.traffic_clock, TRAFFIC_CHANGE
    ),
}

#: Tick sites no decision-level differential can kill, and why.
UNKILLABLE = {
    # A node alone has no link and no video server: no decision can
    # change until a link reaches it, and add_link ticks.
    "add_node": (Topology, "add_node"),
    # A registration matters only for a link the topology already has and
    # the database did not; while such a link exists no weight table can
    # be built (``_reported_used`` raises) and errors are never stored, so
    # the memo holds nothing that could replay.  ``add_server`` registers
    # its links right after ``add_link`` and ``_bump_availability`` tick.
    "register_link": (ServiceDatabase, "register_link"),
}


class TestKillList:
    def test_every_tick_site_is_listed(self):
        import inspect

        ticking = {
            (cls, name)
            for cls in (ServiceDatabase, Topology)
            for name, member in vars(cls).items()
            if callable(member) and ".value += 1" in inspect.getsource(member)
        }
        listed = {spec[:2] for spec in KILLS.values()} | set(UNKILLABLE.values())
        assert ticking <= listed
        assert (VoDService, "_bump_availability") in listed

    @pytest.mark.parametrize("site", sorted(SCENARIOS))
    def test_the_memo_agrees_with_the_reference_path(self, site):
        assert divergence(site) is None

    @pytest.mark.parametrize("site", sorted(KILLS))
    def test_a_dead_tick_breaks_the_lockstep(self, site, monkeypatch):
        untick(monkeypatch, *KILLS[site])
        assert divergence(site) is not None


# ---------------------------------------------------------------------- #
# the hit path is a probe
# ---------------------------------------------------------------------- #
class TestHitPathIsAProbe:
    def test_replays_read_no_token_while_the_clock_stands(self):
        service = build()
        memo = service.vra.cache
        first = service.decide("U2", "movie")
        reads = []
        token_of = memo.token_of
        memo.token_of = lambda: reads.append(1) or token_of()
        for _ in range(1_000):
            assert service.decide("U2", "movie") is first
        assert reads == []
        report("8am")(service)  # the clock moves: one read, then a miss
        assert service.decide("U2", "movie") is not first
        assert len(reads) == 1
        assert memo.decision_stats.hits == 1_000

    @staticmethod
    def scripted(observability):
        """Hit, miss, availability bump, routing bump; what each reads."""
        tracer = Tracer()
        service = build(observability=observability, tracer=tracer)
        readings = []

        def read():
            stats = service.vra.decision_cache_stats
            row = [service.vra.decision_count, stats.hits, stats.misses]
            if observability:
                obs = service.obs
                row += [
                    obs.counter("decision.hits").value,
                    obs.counter("vra.decisions").value,
                    obs.counter("vra.local_serves").value,
                    obs.histogram("vra.candidates").count,
                    obs.histogram("vra.candidates").total,
                ]
            readings.append(row)

        def decide_all():
            for key in (("U2", "movie"), ("U4", "movie"), ("U2", "movie"), ("U4", "movie")):
                service.decide(*key)
            read()

        decide_all()  # two misses (one local), two hits
        decide_all()  # four hits
        service.servers["U1"].admission.admit()  # availability bump
        decide_all()
        report("4pm")(service)  # routing bump
        decide_all()
        rows = [
            (row["data"]["home_uid"], row["data"]["chosen_uid"], row["data"]["cost"])
            for row in trace_rows(tracer, "vra.decision")
        ]
        return readings, rows, service.vra.cache_stats

    def test_counters_read_what_a_token_paying_replay_read(self):
        readings, rows, routing = self.scripted(observability=False)
        assert readings == [[4, 2, 2], [8, 6, 2], [12, 8, 4], [16, 10, 6]]
        assert len(rows) == 16
        assert routing.tree_hits == 1 and routing.invalidations == 1

    def test_instruments_and_trace_rows_read_the_same(self):
        readings, rows, _ = self.scripted(observability=True)
        assert readings == [
            [4, 2, 2, 2, 4, 2, 2, 4],
            [8, 6, 2, 6, 8, 4, 4, 8],
            [12, 8, 4, 8, 12, 6, 6, 12],
            [16, 10, 6, 10, 16, 8, 8, 16],
        ]
        assert rows == self.scripted(observability=False)[1]
        assert [home for home, _, _ in rows] == ["U2", "U4"] * 8
        assert {chosen for home, chosen, _ in rows if home == "U4"} == {"U4"}


# ---------------------------------------------------------------------- #
# the ground-truth path: live link traffic is a token input
# ---------------------------------------------------------------------- #
def ground_truth_flash_crowd(compiled_routing):
    """A flash crowd at U2 under shifting live traffic, on the ground-truth
    path.  Every 10 minutes a probe at U3 decides, the background traffic
    moves to the next Table 2 column, and it decides again in the same
    event: between those two calls only link traffic moved.  Returns the
    service and the probe answers."""
    from repro.experiments.harness import ServiceExperiment
    from repro.experiments.harness import build_service as build_experiment
    from repro.workload.scenarios import flash_crowd_scenario

    special = VideoTitle("special", size_mb=200.0, duration_s=1_200.0)
    scenario = flash_crowd_scenario(
        "U2", special, viewer_count=12, start_s=300.0, ramp_s=1_800.0
    )
    experiment = ServiceExperiment(
        name="ground-truth",
        scenario=scenario,
        config=ServiceConfig(
            cluster_mb=50.0,
            disk_count=2,
            disk_capacity_mb=1_000.0,
            max_streams=64,
            use_reported_stats=False,
            compiled_routing=compiled_routing,
        ),
        seed_origin_uids=["U4"],
        run_until=5 * 3600.0,
    )
    service = build_experiment(experiment)
    service.start()
    sim = service.sim
    for event in scenario.events:
        sim.schedule_at(
            event.time_s,
            lambda e=event: service.request_by_home(e.home_uid, e.title_id, e.client_id),
            name=f"request:{event.client_id}",
        )
    probes = []

    def probe(label):
        before = service.decide("U3", "special")
        apply_traffic_sample(service.topology, label)
        after = service.decide("U3", "special")
        probes.extend((d.chosen_uid, d.path.nodes, d.cost) for d in (before, after))

    labels = ("10am", "4pm", "6pm", "8am")
    for index in range(24):
        sim.schedule_at(
            450.0 + 600.0 * index, probe, labels[index % len(labels)], name="probe"
        )
    sim.run(until=5 * 3600.0)
    return service, probes


class TestGroundTruthPath:
    def test_flash_crowd_fingerprint_matches_the_reference_path(self):
        memoized, probes = ground_truth_flash_crowd(True)
        reference, expected = ground_truth_flash_crowd(False)
        assert all(record.clusters for record in memoized.sessions)
        assert session_fingerprint(memoized.sessions) == session_fingerprint(
            reference.sessions
        )
        assert probes == expected

    def test_the_probes_see_a_dead_traffic_tick(self, monkeypatch):
        untick(monkeypatch, *KILLS["link_traffic"])
        assert ground_truth_flash_crowd(True)[1] != ground_truth_flash_crowd(False)[1]

    def test_the_traffic_clock_is_the_service_clock_only_there(self):
        ground = build(use_reported_stats=False)
        reported = build()
        assert ground.topology.traffic_clock is ground.topology.clock
        assert reported.topology.traffic_clock is not reported.topology.clock


# ---------------------------------------------------------------------- #
# swapping the selection policy
# ---------------------------------------------------------------------- #
class TestReinstallingTheBuiltinVra:
    def test_restoring_the_builtin_vra_memoizes_again(self):
        service = build()
        builtin = service.vra
        first = service.decide("U2", "movie")
        service.vra = MinHopSelection(service.topology)
        service.decide("U2", "movie")
        assert builtin.decision_cache_stats.misses == 1  # the memo sat out
        service.vra = builtin
        assert service.decide("U2", "movie") is first
        assert service.decide("U2", "movie") is first
        assert builtin.decision_cache_stats.hits == 2

    def test_a_move_while_another_policy_ran_is_not_replayed(self):
        service = build()
        builtin = service.vra
        first = service.decide("U4", "movie")
        assert first.served_locally
        service.vra = MinHopSelection(service.topology)
        fill("U4")(service)
        service.vra = builtin
        again = service.decide("U4", "movie")
        assert not again.served_locally and again.chosen_uid == "U5"
