"""Property-based tests: topology structural invariants."""

from hypothesis import given, settings

from repro.network.topology import Topology

from .topology_strategies import random_weighted_topology


@given(random_weighted_topology())
@settings(max_examples=60, deadline=None)
def test_generated_topologies_validate(data):
    topology, _ = data
    topology.validate()  # connected with no isolated nodes by construction
    assert topology.is_connected()


@given(random_weighted_topology())
@settings(max_examples=60, deadline=None)
def test_adjacency_is_symmetric(data):
    topology, _ = data
    for node in topology.nodes():
        for neighbor in topology.neighbors(node.uid):
            assert node.uid in topology.neighbors(neighbor)
            assert topology.has_link_between(node.uid, neighbor)
            assert topology.has_link_between(neighbor, node.uid)


@given(random_weighted_topology())
@settings(max_examples=60, deadline=None)
def test_degree_sums_to_twice_link_count(data):
    topology, _ = data
    total_degree = sum(len(topology.links_at(uid)) for uid in topology.node_uids())
    assert total_degree == 2 * topology.link_count


@given(random_weighted_topology())
@settings(max_examples=60, deadline=None)
def test_every_link_reachable_via_lookup(data):
    topology, weights = data
    assert set(weights) == {link.name for link in topology.links()}
    for link in topology.links():
        assert topology.link_between(link.a_uid, link.b_uid) is link
        assert topology.link_named(link.name) is link


@given(random_weighted_topology())
@settings(max_examples=60, deadline=None)
def test_spanning_tree_bounds_link_count(data):
    topology, _ = data
    n = topology.node_count
    assert n - 1 <= topology.link_count <= n * (n - 1) // 2
