"""Property-based tests: Dijkstra optimality vs networkx on random graphs,
and the goal-directed prefix contract of the compiled search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.compiled import TopologySnapshot
from repro.network.link import Link
from repro.network.node import Node
from repro.network.topology import Topology
from tests.reference.dijkstra import dijkstra


@st.composite
def random_weighted_topology(draw):
    """A connected random graph with positive link weights.

    Builds a random spanning tree for connectivity, then sprinkles extra
    edges.  Returns (topology, weights-by-link-name).
    """
    node_count = draw(st.integers(min_value=2, max_value=12))
    uids = [f"N{i}" for i in range(node_count)]
    topology = Topology(name="random")
    for uid in uids:
        topology.add_node(Node(uid))
    weights = {}

    def add_edge(a, b):
        if topology.has_link_between(a, b):
            return
        link = Link(a, b, capacity_mbps=10.0)
        topology.add_link(link)
        weights[link.name] = draw(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
        )

    # Random spanning tree: attach node i to a random earlier node.
    for i in range(1, node_count):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        add_edge(uids[i], uids[j])
    # Extra edges.
    extra = draw(st.integers(min_value=0, max_value=node_count * 2))
    for _ in range(extra):
        i = draw(st.integers(min_value=0, max_value=node_count - 1))
        j = draw(st.integers(min_value=0, max_value=node_count - 1))
        if i != j:
            add_edge(uids[i], uids[j])
    return topology, weights


@given(random_weighted_topology())
@settings(max_examples=60, deadline=None)
def test_distances_match_networkx(data):
    networkx = pytest.importorskip("networkx")
    topology, weights = data
    graph = networkx.Graph()
    for link in topology.links():
        graph.add_edge(link.a_uid, link.b_uid, weight=weights[link.name])
    source = topology.node_uids()[0]
    ours = dijkstra(topology, source, lambda l: weights[l.name])
    reference = networkx.single_source_dijkstra_path_length(graph, source)
    assert set(ours.distances) == set(reference)
    for uid, expected in reference.items():
        assert abs(ours.cost(uid) - expected) < 1e-9


@given(random_weighted_topology())
@settings(max_examples=60, deadline=None)
def test_paths_are_consistent_with_distances(data):
    """The reported path's link weights must sum to the reported distance,
    and every prefix of a shortest path must itself be shortest."""
    topology, weights = data
    source = topology.node_uids()[0]
    result = dijkstra(topology, source, lambda l: weights[l.name])
    for uid in result.distances:
        path = result.path(uid)
        total = sum(
            weights[link.name] for link in topology.path_links(list(path.nodes))
        )
        assert abs(total - result.cost(uid)) < 1e-9
        for prefix_end in path.nodes[:-1]:
            assert result.cost(prefix_end) <= result.cost(uid) + 1e-9


@given(random_weighted_topology())
@settings(max_examples=40, deadline=None)
def test_triangle_inequality_over_tree(data):
    """d(v) <= d(u) + w(u, v) for every settled edge."""
    topology, weights = data
    source = topology.node_uids()[0]
    result = dijkstra(topology, source, lambda l: weights[l.name])
    for link in topology.links():
        a, b = link.key
        if a in result.distances and b in result.distances:
            w = weights[link.name]
            assert result.cost(b) <= result.cost(a) + w + 1e-9
            assert result.cost(a) <= result.cost(b) + w + 1e-9


# --------------------------------------------------------------------- #
# Goal-directed search: the prefix contract
# --------------------------------------------------------------------- #
#: Small integer weights (zero included) so equidistant nodes and tie
#: drains come up constantly.
TIE_WEIGHTS = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 5.0])


@st.composite
def tie_heavy_search(draw):
    """(topology, weights, source, targets) on a graph full of ties, with
    some links offline (so insertions and partitions occur)."""
    node_count = draw(st.integers(min_value=2, max_value=10))
    uids = [f"N{i}" for i in range(node_count)]
    topology = Topology(name="ties")
    for uid in uids:
        topology.add_node(Node(uid))
    weights = {}
    pairs = [(uids[i], uids[draw(st.integers(0, i - 1))]) for i in range(1, node_count)]
    pairs += draw(
        st.lists(st.tuples(st.sampled_from(uids), st.sampled_from(uids)), max_size=14)
    )
    for a, b in pairs:
        if a == b or topology.has_link_between(a, b):
            continue
        link = Link(a, b, capacity_mbps=10.0)
        topology.add_link(link)
        weights[link.name] = draw(TIE_WEIGHTS)
        if draw(st.integers(0, 5)) == 0:
            link.online = False
    source = draw(st.sampled_from(uids))
    targets = draw(st.lists(st.sampled_from(uids + ["ghost"]), max_size=4))
    return topology, weights, source, targets


def items(result):
    return list(result.distances.items()), list(result.predecessors.items())


@given(tie_heavy_search())
@settings(max_examples=150, deadline=None)
def test_goal_directed_result_is_a_prefix_of_the_full_tree(data):
    """Stop rule + tie drain: the search returns exactly the nodes within
    ``radius`` — values and insertion order as in the python oracle — and
    the nearest target by ``min((cost, uid))`` is always inside."""
    topology, weights, source, targets = data
    snapshot = TopologySnapshot(topology)
    full = dijkstra(topology, source, lambda link: weights[link.name])
    prefix = snapshot.dijkstra(source, weights, targets)

    reachable = [(full.distances[t], t) for t in targets if t in full.distances]
    if prefix.complete:
        assert prefix.radius == float("inf")
        assert items(prefix) == items(full)
    else:
        # Stopped early: some target was settled, at exactly the radius.
        assert prefix.radius == min(reachable)[0]
        assert len(prefix.distances) < len(full.distances)
    inside = [uid for uid, d in full.distances.items() if d <= prefix.radius]
    assert list(prefix.distances) == inside
    assert items(prefix) == (
        [(uid, full.distances[uid]) for uid in inside],
        [(uid, full.predecessors[uid]) for uid in inside],
    )
    if reachable:
        cost, chosen = min(reachable)
        assert prefix.distances[chosen] == cost
        assert prefix.path(chosen) == full.path(chosen)
        # Every target tying with the winner was drained too.
        assert all(t in prefix.distances for d, t in reachable if d == cost)
    # No targets means the whole tree, as every full-tree consumer expects.
    assert items(snapshot.dijkstra(source, weights)) == items(full)


@given(tie_heavy_search(), st.integers(min_value=0), st.sampled_from([-1.0, float("nan")]))
@settings(max_examples=60, deadline=None)
def test_invalid_weight_anywhere_raises_like_the_full_run(data, index, bad):
    """Validation fallback: a negative/NaN weight — even beyond the
    stopping radius — raises the oracle's error for the oracle's link."""
    topology, weights, source, targets = data
    snapshot = TopologySnapshot(topology)
    snapshot.dijkstra(source, weights, targets)  # the valid table's memo must not vouch
    link = list(topology.links())[index % topology.link_count]
    patched = {**weights, link.name: bad}

    def outcome(run):
        try:
            return items(run())
        except Exception as exc:  # noqa: BLE001 - compared by type and text
            return type(exc).__name__, str(exc)

    oracle = outcome(lambda: dijkstra(topology, source, lambda l: patched[l.name]))
    assert outcome(lambda: snapshot.dijkstra(source, patched, targets)) == oracle
