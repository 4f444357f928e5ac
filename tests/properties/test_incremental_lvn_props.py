"""Property tests: epoch-cached routing is bit-for-bit cold routing.

The cache (epoch change -> drop everything -> one cold LVN table, one
search per home asked) is an optimisation with a correctness contract:
under ANY interleaving of traffic rewrites, link failures/recoveries, and
SNMP-style database writes (including same-value drumbeat writes), a
cached VRA must produce exactly the decisions a cache-less VRA computes
from scratch — same server, same path, same cost, same weight table, and
the same exceptions when routing is impossible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.service import ServiceConfig, VoDService
from repro.core.vra import VirtualRoutingAlgorithm
from repro.database.records import LinkEntry, LinkStats
from repro.database.store import ServiceDatabase
from repro.errors import RoutingError
from repro.network.grnet import GRNET_LINKS, GRNET_NODES, build_grnet_topology
from repro.network.link import Link
from repro.network.node import Node
from repro.sim.engine import Simulator
from tests.reference.lvn import weight_table
from tests.memoized_vra import memoized_vra

NODES = sorted(GRNET_NODES)
LINK_NAMES = [name for name, _, _ in GRNET_LINKS]
CAPACITY = {name: capacity for name, _, capacity in GRNET_LINKS}

#: One churn op: (link, kind, utilisation).  "traffic" rewrites background
#: load, "toggle" flips online, "same" rewrites the current value — the
#: SNMP drumbeat, an epoch in which nothing moved.
link_ops = st.lists(
    st.tuples(
        st.sampled_from(LINK_NAMES),
        st.sampled_from(["traffic", "toggle", "same"]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=0,
    max_size=5,
)
#: A run: churn batches, each followed by one decision from a random home.
churn_runs = st.lists(
    st.tuples(link_ops, st.sampled_from(NODES)), min_size=2, max_size=10
)


def apply_ops(topology, ops):
    for name, kind, u in ops:
        link = topology.link_named(name)
        if kind == "traffic":
            link.set_background_mbps(u * CAPACITY[name])
        elif kind == "toggle":
            link.online = not link.online
        else:
            link.set_background_mbps(link.used_mbps)


def delta_vra(topology, used_of=None, db=None):
    """A cached VRA flushed on the publishes VoDService flushes its on."""
    return memoized_vra(topology, db, used_of=used_of)


def decision_fingerprint(vra, home):
    """Everything observable about one decision, exceptions included."""
    holders = [uid for uid in NODES if uid != home]
    try:
        d = vra.decide(home, "t", holders=holders)
    except RoutingError as exc:
        return ("error", str(exc))
    return (
        d.chosen_uid,
        d.path.nodes,
        d.cost,
        sorted(d.weights.items()),
        {uid: (p.nodes, p.cost) for uid, p in d.candidate_paths.items()},
    )


@given(churn_runs)
@settings(max_examples=60, deadline=None)
def test_ground_truth_delta_decisions_match_cold(runs):
    topology = build_grnet_topology()
    cached = delta_vra(topology)
    assert cached.cache is not None
    plain = VirtualRoutingAlgorithm(topology)
    for ops, home in runs:
        apply_ops(topology, ops)
        assert decision_fingerprint(cached, home) == decision_fingerprint(plain, home)


@given(churn_runs)
@settings(max_examples=60, deadline=None)
def test_reported_stats_delta_decisions_match_cold(runs):
    """The paper-faithful path: the VRA reads SNMP samples from the DB."""
    topology = build_grnet_topology()
    db = ServiceDatabase()
    for link in topology.links():
        db.register_link(
            LinkEntry(
                link_name=link.name,
                endpoints=link.endpoints,
                total_bandwidth_mbps=link.capacity_mbps,
            )
        )

    def reported(link):
        return db.link_entry(link.name).used_mbps

    cached = delta_vra(topology, used_of=reported, db=db)
    assert cached.cache is not None
    plain = VirtualRoutingAlgorithm(topology, used_of=reported)
    clock = [0.0]
    for ops, home in runs:
        apply_ops(topology, ops)
        # SNMP round: every link reports, changed or not (the drumbeat).
        clock[0] += 60.0
        for link in topology.links():
            db.update_link_stats(
                link.name,
                LinkStats(
                    used_mbps=link.used_mbps,
                    utilization=min(link.used_mbps / link.capacity_mbps, 1.0),
                    timestamp=clock[0],
                ),
            )
        assert decision_fingerprint(cached, home) == decision_fingerprint(plain, home)
    # Every drumbeat round is an epoch, whether or not a value moved.
    assert cached.cache_stats.invalidations == len(runs) - 1


def test_dirty_link_disconnecting_cached_tree_source():
    """Edge case: an epoch kills the only path out of a cached tree's root.

    Patra (U2) hangs off Athens and Ioannina; failing both links strands
    it.  The cached VRA must report the same RoutingError a cold VRA
    does, and recover identically when a link comes back.
    """
    topology = build_grnet_topology()
    cached = delta_vra(topology)
    plain = VirtualRoutingAlgorithm(topology)

    assert decision_fingerprint(cached, "U2") == decision_fingerprint(plain, "U2")
    topology.link_named("Patra-Athens").online = False
    topology.link_named("Patra-Ioannina").online = False
    stranded_cached = decision_fingerprint(cached, "U2")
    assert stranded_cached == decision_fingerprint(plain, "U2")
    assert stranded_cached[0] == "error"
    topology.link_named("Patra-Athens").online = True
    recovered = decision_fingerprint(cached, "U2")
    assert recovered == decision_fingerprint(plain, "U2")
    assert recovered[0] != "error"


# --------------------------------------------------------------------------- #
# the cached table, at the service level
# --------------------------------------------------------------------------- #
#: One service-level op: traffic churn, an online flip, an SNMP sample for one
#: link, clock ageing (staleness toggles) or runtime expansion.
service_ops = st.lists(
    st.tuples(
        st.sampled_from(["traffic", "toggle", "report", "age", "expand"]),
        st.sampled_from(LINK_NAMES),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=0,
    max_size=5,
)


def apply_service_ops(service, ops):
    topology, sim = service.topology, service.sim
    for kind, name, u in ops:
        link = topology.link_named(name)
        if kind == "traffic":
            link.set_background_mbps(u * link.capacity_mbps)
        elif kind == "toggle":
            link.online = not link.online
        elif kind == "report":
            service.database.update_link_stats(
                name,
                LinkStats(
                    used_mbps=link.used_mbps,
                    utilization=link.used_mbps / link.capacity_mbps,
                    timestamp=sim.now,
                ),
            )
        elif kind == "age":
            sim.run(until=sim.now + 600.0 * u)
            service.staleness_guard.refresh()
        else:
            uid = f"X{topology.node_count}"
            service.add_server(
                Node(uid), [Link(uid, link.a_uid, capacity_mbps=1.0 + 9.0 * u)]
            )


@given(st.lists(service_ops, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_probe_table_is_a_cold_build_and_its_deltas_are_the_diff(batches):
    """The publish says when: whatever moved a routing input also flushed
    the memo, so the table the cache holds is the reference ``weight_table`` bit
    for bit and in key order; an unmoved epoch keeps the very same table
    object, and a table handed out earlier is never written to again."""
    service = VoDService(
        Simulator(),
        build_grnet_topology(),
        ServiceConfig(max_stats_age_s=90.0),
    )
    topology, vra = service.topology, service.vra

    def cold():
        return weight_table(
            topology, service._guarded_used, service.config.normalization_constant
        )

    held, epoch = vra.weights(), service.routing_epoch()
    before = cold()
    assert list(map(repr, held.items())) == list(map(repr, before.items()))
    for ops in batches:
        apply_service_ops(service, ops)
        table, after = vra.weights(), cold()
        assert list(map(repr, table.items())) == list(map(repr, after.items()))
        assert (table is held) == (service.routing_epoch() == epoch)
        assert list(map(repr, held.items())) == list(map(repr, before.items()))
        held, epoch, before = table, service.routing_epoch(), after
    assert vra.cache_stats.weight_misses == vra.cache_stats.invalidations + 1
