"""Property tests: fault storms of any size between two decisions are safe.

A fault storm can mutate links arbitrarily often between two VRA
decisions.  Nothing records the individual changes, so nothing can
overflow: the epoch token moved, the cache drops what it held, and a
cached VRA still produces exactly the decisions a cache-less VRA computes
from scratch.  A stale route would mean streaming over a link the storm
already killed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vra import VirtualRoutingAlgorithm
from repro.errors import RoutingError
from repro.network.link import Link
from repro.network.node import Node
from repro.network.topology import Topology

NODES = ("A", "B", "C", "D", "E")
EDGES = (
    ("A", "B", 10.0),
    ("B", "C", 10.0),
    ("C", "D", 10.0),
    ("D", "E", 10.0),
    ("A", "E", 10.0),
    ("B", "D", 4.0),
)
#: Link changes between two decisions in the deterministic pin — more than
#: any bounded per-change log would be sized to hold.
STORM_CHANGES = 5000


def build_topology():
    topology = Topology(name="storm")
    for uid in NODES:
        topology.add_node(Node(uid=uid))
    for a, b, capacity in EDGES:
        topology.add_link(Link(a, b, capacity_mbps=capacity))
    return topology


def delta_vra(topology):
    """A cached VRA on the ground-truth epoch."""
    return VirtualRoutingAlgorithm(
        topology,
        epoch_of=lambda: (topology.traffic_version, topology.state_version),
    )


def apply_storm(topology, ops):
    for link_index, kind, level in ops:
        link = list(topology.links())[link_index % topology.link_count]
        if kind == "flap":
            link.online = not link.online
        else:
            link.set_background_mbps(level * link.capacity_mbps)


def fingerprint(vra, home):
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
    )


storm_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(EDGES) - 1),
        st.sampled_from(["flap", "traffic"]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=0,
    max_size=12,
)
storm_runs = st.lists(
    st.tuples(storm_ops, st.sampled_from(NODES)), min_size=2, max_size=8
)


@given(storm_runs)
@settings(max_examples=60, deadline=None)
def test_overflowing_storms_never_yield_stale_routes(runs):
    topology = build_topology()
    cached = delta_vra(topology)
    assert cached.cache is not None
    plain = VirtualRoutingAlgorithm(topology)
    for ops, home in runs:
        apply_storm(topology, ops)
        assert fingerprint(cached, home) == fingerprint(plain, home)


def test_overflow_degrades_to_full_flush():
    """Deterministic pin of the overflow that no longer exists: thousands
    of link changes between two decisions are one epoch change — one
    flush — and the decision still matches cold."""
    topology = build_topology()
    cached = delta_vra(topology)
    plain = VirtualRoutingAlgorithm(topology)
    assert fingerprint(cached, "A") == fingerprint(plain, "A")  # warm the cache

    links = list(topology.links())
    for step in range(STORM_CHANGES):
        links[step % len(links)].set_background_mbps(float(step % 7 + 1))
    assert fingerprint(cached, "A") == fingerprint(plain, "A")
    assert cached.cache_stats.invalidations == 1

    link = topology.link_named("B-C")
    link.set_background_mbps(0.5)
    assert fingerprint(cached, "A") == fingerprint(plain, "A")
    assert cached.cache_stats.invalidations == 2


def test_storm_killing_every_route_matches_cold_error():
    """All links down mid-storm: both VRAs must refuse identically, and
    both must recover identically when one path returns."""
    topology = build_topology()
    cached = delta_vra(topology)
    plain = VirtualRoutingAlgorithm(topology)
    for link in topology.links():
        link.online = False
    down = fingerprint(cached, "A")
    assert down == fingerprint(plain, "A")
    assert down[0] == "error"
    topology.link_named("A-B").online = True
    up = fingerprint(cached, "A")
    assert up == fingerprint(plain, "A")
    assert up[0] != "error"
