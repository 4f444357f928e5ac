"""The change feed, the epoch memo's only input clock.

Every input of a decision publishes on the feed when it moves (a publish
is the clock's tick), and the service subscribes its memo's flushes to
those kinds before anything else can subscribe; ``service.decide``
then never asks whether the memo is current, and a replay is one probe
of a C memo.  Pinned here:

* the kill-list: each publish site, made silent, breaks a lock-step
  differential against the reference path (``compiled_routing=False``,
  no memo) — or the test says why that site cannot be killed;
* a publish flushes first: a subscriber that decides inside a publish of
  any flush kind gets what the reference path answers;
* the hit path is a probe: a replay never re-enters the VRA nor runs a
  Python frame, and every counter, instrument and returned decision
  reads its pinned value, live between flushes too;
* the ground-truth path, the only one where link traffic flushes;
* re-installing the built-in VRA re-attaches its memo.
"""

import ast
import pathlib

import pytest

import repro
from repro.baselines.selection import MinHopSelection
from repro.core.service import ServiceConfig, VoDService
from repro.database.records import LinkStats
from repro.database.store import ServiceDatabase
from repro.errors import ReproError
from repro.experiments.placement import session_fingerprint
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.network import feed
from repro.network.feed import (
    AVAILABILITY,
    DISK,
    LINK_STATS,
    LOCATIONS,
    SERVER,
    SNMP_ROUND,
    STATE,
    TRAFFIC,
    ChangeFeed,
)
from repro.network.link import Link
from repro.network.topology import Topology
from repro.server.video_server import VideoServer
from repro.sim.engine import Simulator
from repro.snmp.collector import StatisticsService
from repro.storage.video import VideoTitle

MOVIE = VideoTitle("movie", size_mb=600.0, duration_s=3_600.0)
#: Every home asks for the one title its two holders (U4, U5) serve.
PAIRS = tuple((home, "movie") for home in ("U1", "U2", "U3", "U4", "U5", "U6"))


def build(compiled_routing=True, **config):
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    service = VoDService(
        Simulator(),
        topology,
        ServiceConfig(compiled_routing=compiled_routing, **config),
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
#: fails once its site's publish is silent.
SCENARIOS = {
    "update_link_stats": ((report("8am"), report("4pm")), {}),
    "update_link_stats_round": ((report_round("8am"), report_round("4pm")), {}),
    # A stale-set flip writes nothing: only touch_links publishes.
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


def divergence(site, victims=None):
    """Run the site's scenario on a memoized service and its reference
    twin in lock-step, deciding every pair twice between steps; return
    the first step index whose answers differ (None: they never do).
    The memoized service's feed joins ``victims`` once it is built."""
    steps, config = SCENARIOS[site]
    memoized, reference = build(True, **config), build(False, **config)
    if victims is not None:
        victims.append(memoized.topology.feed)
    for index in range(len(steps) + 1):
        expected = answers(reference)
        if answers(memoized) != expected or answers(memoized) != expected:
            return index
        if index < len(steps):
            steps[index](memoized)
            steps[index](reference)
    return None


def kill(monkeypatch, owner, name, kind):
    """Drop every publish of ``kind`` that ``owner.name`` makes on a feed
    in the returned list: the site without its publish (no counter moves,
    no subscriber hears it).  Only the memoized twin's feed goes in the
    list, so the reference twin stays a whole service: a dead ``STATE``
    publish also leaves the routing kernel's snapshot stale, which would
    otherwise fool both twins alike.  No scenario here nests one site in
    another, so this is exactly that site made silent."""
    victims, muted = [], []
    publish = ChangeFeed.publish

    def quiet(feed, published, key=None):
        if published not in muted or feed not in victims:
            publish(feed, published, key)

    original = getattr(owner, name)

    def patched(self, *args, **kwargs):
        muted.append(kind)
        try:
            return original(self, *args, **kwargs)
        finally:
            muted.pop()

    monkeypatch.setattr(ChangeFeed, "publish", quiet)
    monkeypatch.setattr(owner, name, patched)
    return victims


#: site -> how to kill its publish: ``(owner, method, kind)``.  A link's
#: sites (its online setter, its traffic writes) publish through
#: ``Link._publish``, so one kill per kind covers them.
KILLS = {
    "update_link_stats": (ServiceDatabase, "update_link_stats", LINK_STATS),
    "update_link_stats_round": (ServiceDatabase, "update_link_stats_round", LINK_STATS),
    "touch_links": (ServiceDatabase, "touch_links", LINK_STATS),
    "add_title_to_server": (ServiceDatabase, "add_title_to_server", LOCATIONS),
    "remove_title_from_server": (ServiceDatabase, "remove_title_from_server", LOCATIONS),
    "bump_availability": (VideoServer, "_availability_moved", AVAILABILITY),
    "link_online_flip": (Link, "_publish", STATE),
    "add_link": (Topology, "add_link", STATE),
    "link_traffic": (Link, "_publish", TRAFFIC),
}

#: Publish sites no decision-level differential can kill, and why.
UNKILLABLE = {
    # A node alone has no link and no video server: no decision can
    # change until a link reaches it, and add_link publishes.
    "add_node": (Topology, "add_node", STATE),
    # A registration matters only for a link the topology already has and
    # the database did not; while such a link exists no weight table can
    # be built (``_reported_used`` raises) and errors are never stored, so
    # the memo holds nothing that could replay.  ``add_server`` registers
    # its links right after ``add_link`` published.
    "register_link": (ServiceDatabase, "register_link", LINK_STATS),
    # The last three kinds flush nothing: each follows a flushing
    # publish in the same call (AVAILABILITY before SERVER and DISK,
    # LINK_STATS before SNMP_ROUND), which already flushed the memo.
    # What they feed is pinned where it acts: the supervisor's
    # preemptions in tests/resilience/test_supervisor.py, the staleness
    # guard's refresh in tests/resilience/test_staleness.py.
    "server_flip": (VideoServer, "online", SERVER),
    "disk_death": (VideoServer, "_array_changed", DISK),
    "snmp_round": (StatisticsService, "_collect_all", SNMP_ROUND),
}


def publish_sites():
    """Every ``(Class.method, KIND)`` in ``src/`` that publishes a named
    kind; a call to ``Link._publish(KIND)`` counts as that method's."""
    root = pathlib.Path(repro.__file__).parent
    found = set()
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for method in (node for node in cls.body if isinstance(node, ast.FunctionDef)):
                for call in ast.walk(method):
                    if not (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("publish", "_publish")
                        and call.args
                        and isinstance(call.args[0], ast.Name)
                        and call.args[0].id.isupper()
                    ):
                        continue
                    where = "Link._publish" if call.func.attr == "_publish" else (
                        f"{cls.name}.{method.name}"
                    )
                    found.add((where, call.args[0].id))
    return found


class TestKillList:
    def test_every_tick_site_is_listed(self):
        names = {value: name for name, value in vars(feed).items() if name.isupper()}
        listed = {
            (f"{owner.__name__}.{method}", names[kind])
            for owner, method, kind in (*KILLS.values(), *UNKILLABLE.values())
        }
        assert publish_sites() == listed

    @pytest.mark.parametrize("site", sorted(SCENARIOS))
    def test_the_memo_agrees_with_the_reference_path(self, site):
        assert divergence(site) is None

    @pytest.mark.parametrize("site", sorted(KILLS))
    def test_a_dead_tick_breaks_the_lockstep(self, site, monkeypatch):
        victims = kill(monkeypatch, *KILLS[site])
        assert divergence(site, victims) is not None


class TestAPublishFlushesFirst:
    """The memo's flushes are the first subscribers of their kinds, so a
    subscriber registered after the service that decides from inside a
    publish already sees the memo flushed."""

    @pytest.mark.parametrize("site", sorted(SCENARIOS))
    def test_a_later_subscriber_decides_what_the_reference_path_does(self, site):
        steps, config = SCENARIOS[site]
        twins = build(True, **config), build(False, **config)
        heard = ([], [])
        for service, log in zip(twins, heard):
            service.topology.feed.subscribe(
                KILLS[site][2], lambda _key, s=service, log=log: log.append(answers(s))
            )
        for step in steps:
            for service in twins:
                answers(service)  # the memo holds every pair
                step(service)
        memoized, reference = heard
        assert memoized and memoized == reference

    def test_a_traffic_publish_keeps_everything_on_the_reported_path(self):
        service = build()
        memo = service.vra.cache
        decisions = [service.decide(home, title) for home, title in PAIRS]
        trees = dict(memo._trees)
        table = service.vra.weights()
        traffic("4pm")(service)  # every link's background traffic moves
        assert memo._trees == trees
        assert all(service.decide(*key) is d for key, d in zip(PAIRS, decisions))
        assert service.vra.weights() is table
        assert memo.stats.invalidations == 0


# ---------------------------------------------------------------------- #
# the hit path is a probe
# ---------------------------------------------------------------------- #
class TestHitPathIsAProbe:
    def test_replays_never_reenter_the_vra(self, monkeypatch):
        service = build()
        memo = service.vra.cache
        first = service.decide("U2", "movie")
        runs = []
        route = service.vra.route  # every VRA run, memo on or off
        monkeypatch.setattr(
            service.vra, "route", lambda *args, **kwargs: runs.append(1) or route(*args, **kwargs)
        )
        for _ in range(1_000):
            assert service.decide("U2", "movie") is first
        assert runs == []
        report("8am")(service)  # the clock ticks: the next call is a miss
        assert service.decide("U2", "movie") is not first
        assert len(runs) == 1
        assert memo.decision_stats.hits == 1_000

    @pytest.mark.parametrize("cluster", [(), (None,), (0,)])
    def test_a_replay_runs_no_python_frame(self, cluster):
        """With observability off, ``service.decide`` is the C memo
        itself: a replay records no Python ``call`` event — whole-title,
        explicit ``None`` and per-cluster calls alike."""
        import sys

        service = build()
        first = service.decide("U2", "movie", *cluster)
        calls = []

        def profile(frame, event, _arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            again = service.decide("U2", "movie", *cluster)
        finally:
            sys.setprofile(None)
        assert again is first
        assert calls == []

    def test_counters_read_live_between_flushes(self):
        """``decision_count`` and ``decision_cache_stats`` read right after
        N replays, mid-epoch and across a flush: the C memo's own count
        plus what every flush harvested."""
        service = build()
        vra = service.vra

        def reading():
            stats = vra.decision_cache_stats
            return vra.decision_count, stats.hits, stats.misses

        service.decide("U2", "movie")
        for n in range(1, 6):
            service.decide("U2", "movie")
            assert reading() == (1 + n, n, 1)
        report("4pm")(service)  # a flush harvests the five replays
        assert reading() == (6, 5, 1)
        service.decide("U2", "movie")
        service.decide("U2", "movie")
        assert reading() == (8, 6, 2)
        service.servers["U1"].admission.admit()  # an availability flush
        service.servers["U1"].admission.admit()  # ... with nothing to harvest
        assert reading() == (8, 6, 2)
        service.decide("U2", "movie", 3)  # no partial copy: the (U2, movie) key
        service.decide("U2", "movie")
        assert reading() == (10, 7, 3)

    @staticmethod
    def scripted(observability):
        """Hit, miss, availability bump, routing bump; what each reads,
        and each decision returned as (home, chosen, cost)."""
        service = build(observability=observability)
        readings, rows = [], []

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
            for home in ("U2", "U4", "U2", "U4"):
                decision = service.decide(home, "movie")
                rows.append((home, decision.chosen_uid, decision.cost))
            read()

        decide_all()  # two misses (one local), two hits
        decide_all()  # four hits
        service.servers["U1"].admission.admit()  # availability bump
        decide_all()
        report("4pm")(service)  # routing bump
        decide_all()
        return readings, rows, service.vra.cache_stats

    def test_counters_count_every_replay_and_miss(self):
        readings, _, routing = self.scripted(observability=False)
        assert readings == [[4, 2, 2], [8, 6, 2], [12, 8, 4], [16, 10, 6]]
        assert routing.tree_hits == 1 and routing.invalidations == 1

    def test_instruments_and_decisions_read_the_same(self):
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
# the ground-truth path: live link traffic flushes the memo
# ---------------------------------------------------------------------- #
def ground_truth_flash_crowd(compiled_routing, victims=None):
    """A flash crowd at U2 under shifting live traffic, on the ground-truth
    path.  Every 10 minutes a probe at U3 decides, the background traffic
    moves to the next Table 2 column, and it decides again in the same
    event: between those two calls only link traffic moved.  Returns the
    service and the probe answers; the service's feed joins ``victims``."""
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
    if victims is not None:
        victims.append(service.topology.feed)
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
        victims = kill(monkeypatch, *KILLS["link_traffic"])
        assert ground_truth_flash_crowd(True, victims)[1] != ground_truth_flash_crowd(False)[1]

    def test_traffic_flushes_only_the_ground_truth_path(self):
        """Every traffic change publishes; only the ground-truth path
        subscribes a flush to it, so the reported-stats path replays."""
        for reported in (True, False):
            service = build(use_reported_stats=reported)
            first = service.decide("U2", "movie")
            traffic("4pm")(service)
            assert (service.decide("U2", "movie") is first) is reported


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
