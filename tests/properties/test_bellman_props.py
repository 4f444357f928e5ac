"""Property-based tests: Bellman-Ford agrees with Dijkstra on non-negative
weights, on random connected graphs."""

from hypothesis import given, settings

from tests.reference.bellman_ford import bellman_ford
from tests.reference.dijkstra import dijkstra

from .topology_strategies import random_weighted_topology


@given(random_weighted_topology())
@settings(max_examples=60, deadline=None)
def test_distances_match_dijkstra(data):
    topology, weights = data
    source = topology.node_uids()[0]
    bf = bellman_ford(topology, source, lambda l: weights[l.name])
    dj = dijkstra(topology, source, lambda l: weights[l.name])
    assert not bf.negative_cycle
    assert set(bf.distances) == set(dj.distances)
    for uid in dj.distances:
        assert abs(bf.cost(uid) - dj.cost(uid)) < 1e-9


@given(random_weighted_topology())
@settings(max_examples=40, deadline=None)
def test_paths_cost_what_they_claim(data):
    topology, weights = data
    source = topology.node_uids()[0]
    bf = bellman_ford(topology, source, lambda l: weights[l.name])
    for uid in bf.distances:
        path = bf.path(uid)
        total = sum(
            weights[link.name] for link in topology.path_links(list(path.nodes))
        )
        assert abs(total - bf.cost(uid)) < 1e-9


@given(random_weighted_topology())
@settings(max_examples=40, deadline=None)
def test_any_negative_link_reachable_means_negative_cycle(data):
    """On an undirected graph, making any one reachable link negative must
    trip cycle detection (the erratum-3 lesson)."""
    topology, weights = data
    source = topology.node_uids()[0]
    victim = next(iter(weights))
    negative = dict(weights)
    negative[victim] = -1.0
    result = bellman_ford(topology, source, lambda l: negative[l.name])
    # The graph is connected by construction, so the victim is reachable.
    assert result.negative_cycle
