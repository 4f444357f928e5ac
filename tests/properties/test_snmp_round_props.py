"""Property tests: one reporter per link writes what both ends wrote.

``StatisticsService`` asks the earlier-created endpoint module of every
link for one sample and writes the round with one epoch bump; the round
it replaced (kept as ``tests/snmp/both_ends_oracle.py``) sampled and
wrote every link from both endpoints.  Under anything the service can
do to the network — background-traffic changes, sessions reserving and
releasing flows, collector blackouts, a server joining mid-run — the two
must leave identical databases after every round, count the same changed
samples, and move (or not move) the routing epoch at the same moments.

The steps deliberately do not include a hand-made ``agent.advance()`` on
one endpoint between rounds: that is the one way the two ends of a link
can disagree, and nothing in ``src/`` does it (agents are advanced only
by the polls of a collection round, both ends at the same instant).
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.service import ServiceConfig, VoDService
from repro.network.link import Link
from repro.network.node import Node
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle
from tests.snmp.both_ends_oracle import link_stats, use_both_ends_oracle

from .topology_strategies import random_weighted_topology

PERIOD_S = 60.0

#: What happens between two collection rounds.
between_rounds = st.lists(
    st.one_of(
        st.tuples(
            st.just("traffic"),
            st.integers(min_value=0, max_value=63),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        st.tuples(st.just("request"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("blackout")),
        st.tuples(st.just("add_server"), st.integers(min_value=0, max_value=63)),
    ),
    max_size=4,
)


def build_pair(topology):
    pair = []
    for oracle in (False, True):
        service = VoDService(
            Simulator(),
            copy.deepcopy(topology),
            ServiceConfig(snmp_period_s=PERIOD_S, cluster_mb=20.0),
        )
        if oracle:
            use_both_ends_oracle(service)
        service.seed_title("N0", VideoTitle("clip", size_mb=40.0, duration_s=120.0))
        service.start()
        pair.append(service)
    return pair


def apply_step(service, step, serial):
    kind = step[0]
    topology = service.topology
    if kind == "traffic":
        links = list(topology.links())
        link = links[step[1] % len(links)]
        link.set_background_mbps(step[2] * link.capacity_mbps)
    elif kind == "request":
        uids = topology.node_uids()
        service.request_by_home(uids[step[1] % len(uids)], "clip", f"c{serial}")
    elif kind == "blackout":
        collector = service.statistics
        collector.restore() if collector.blacked_out else collector.blackout()
    elif kind == "add_server":
        uids = topology.node_uids()
        uid = f"X{serial}"
        service.add_server(
            Node(uid), [Link(uid, uids[step[1] % len(uids)], capacity_mbps=10.0)]
        )


def changed_samples(service):
    return sum(module.changed_samples for module in service.statistics.modules)


@given(
    random_weighted_topology(max_nodes=7),
    st.lists(between_rounds, min_size=2, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_one_reporter_round_equals_the_both_ends_round(drawn, rounds):
    topology, _ = drawn
    new, old = pair = build_pair(topology)
    serial = 0
    for round_number, steps in enumerate(rounds, start=1):
        for step in steps:
            serial += 1
            for service in pair:
                apply_step(service, step, serial)
        versions = [service.database.link_stats_version for service in pair]
        epochs = [service.routing_epoch() for service in pair]
        for service in pair:
            service.sim.run(until=round_number * PERIOD_S + 1.0)
        collected = not new.statistics.blacked_out
        assert new.database.link_stats_version - versions[0] == int(collected)
        assert (old.database.link_stats_version != versions[1]) == collected
        assert [
            service.routing_epoch() != epoch for service, epoch in zip(pair, epochs)
        ] == [collected, collected]
        assert link_stats(new.database) == link_stats(old.database)
        assert changed_samples(new) == changed_samples(old)
        home = new.topology.node_uids()[-1]
        outcomes = [service.try_decide(home, "clip") for service in pair]
        assert outcomes[0] == outcomes[1]
        assert new.vra.cache_stats.invalidations == old.vra.cache_stats.invalidations
    for service in pair:
        service.sim.run(until=service.sim.now + 3_600.0)
    assert [
        (record.request.status, record.completed_at, record.stall_s)
        for record in new.sessions
    ] == [
        (record.request.status, record.completed_at, record.stall_s)
        for record in old.sessions
    ]
