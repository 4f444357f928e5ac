"""Unit tests for Bellman-Ford and the negative-weight erratum lesson."""

import pytest

from repro.errors import RoutingError, TopologyError
from tests.network._bellman_ford import bellman_ford
from repro.network.routing.dijkstra import dijkstra


def unit_weight(_link):
    return 1.0


class TestAgreementWithDijkstra:
    def test_line(self, line):
        bf = bellman_ford(line, "A", unit_weight)
        dj = dijkstra(line, "A", unit_weight)
        assert bf.distances == pytest.approx(dj.distances)
        assert bf.path("D").nodes == dj.path("D").nodes

    def test_grnet_with_lvn_weights(self, grnet_8am):
        from repro.core.lvn import weight_table

        weights = weight_table(grnet_8am)
        bf = bellman_ford(grnet_8am, "U2", lambda l: weights[l.name])
        dj = dijkstra(grnet_8am, "U2", lambda l: weights[l.name])
        for uid in dj.distances:
            assert bf.cost(uid) == pytest.approx(dj.cost(uid))

    def test_triangle_detour(self, triangle):
        weights = {"A-B": 1.0, "B-C": 1.0, "A-C": 5.0}
        bf = bellman_ford(triangle, "A", lambda l: weights[l.name])
        assert bf.path("C").nodes == ("A", "B", "C")
        assert bf.cost("C") == pytest.approx(2.0)


class TestNegativeWeights:
    def test_negative_link_on_undirected_graph_is_a_negative_cycle(self, line):
        """The paper's erratum 3 made concrete: a truly negative weight on
        an undirected link is a negative cycle, so 'negative value'
        weights could never have produced the paper's tables."""
        weights = {"A-B": 1.0, "B-C": -0.5, "C-D": 1.0}
        result = bellman_ford(line, "A", lambda l: weights[l.name])
        assert result.negative_cycle
        with pytest.raises(RoutingError):
            result.cost("D")

    def test_unreachable_negative_link_is_harmless(self):
        from repro.network.link import Link
        from repro.network.node import Node
        from repro.network.topology import Topology

        topology = Topology()
        for uid in "ABCD":
            topology.add_node(Node(uid))
        topology.add_link(Link("A", "B", capacity_mbps=1.0))
        topology.add_link(Link("C", "D", capacity_mbps=1.0))  # separate island
        weights = {"A-B": 1.0, "C-D": -5.0}
        result = bellman_ford(topology, "A", lambda l: weights[l.name])
        assert not result.negative_cycle
        assert result.cost("B") == pytest.approx(1.0)
        assert not result.reaches("C")


class TestEdgeCases:
    def test_unknown_source_rejected(self, line):
        with pytest.raises(TopologyError):
            bellman_ford(line, "Z", unit_weight)

    def test_unreachable_target(self):
        from repro.network.link import Link
        from repro.network.node import Node
        from repro.network.topology import Topology

        topology = Topology()
        for uid in "ABC":
            topology.add_node(Node(uid))
        topology.add_link(Link("A", "B", capacity_mbps=1.0))
        result = bellman_ford(topology, "A", unit_weight)
        assert not result.reaches("C")
        with pytest.raises(RoutingError):
            result.path("C")

    def test_offline_links_skipped(self, triangle):
        triangle.link_between("A", "C").online = False
        result = bellman_ford(triangle, "A", unit_weight)
        assert result.path("C").nodes == ("A", "B", "C")

    def test_nan_weight_rejected(self, line):
        with pytest.raises(RoutingError):
            bellman_ford(line, "A", lambda _l: float("nan"))
