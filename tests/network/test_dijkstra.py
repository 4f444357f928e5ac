"""Unit tests for the routing kernel's Dijkstra and its trace mode."""

import pytest

from repro.core.lvn import weight_table
from repro.errors import RoutingError, TopologyError
from repro.network.compiled import TopologySnapshot
from repro.network.link import Link
from repro.network.node import Node
from repro.network.routing.dijkstra import UNREACHED
from repro.network.topology import Topology


def unit_weight(_link):
    return 1.0


def search(topology, source, weight, trace=False):
    """The kernel's search over ``weight`` read into a link table."""
    table = {link.name: weight(link) for link in topology.links()}
    return TopologySnapshot(topology).dijkstra(source, table, trace=trace)


class TestShortestPaths:
    def test_line_distances(self, line):
        result = search(line, "A", unit_weight)
        assert result.cost("A") == 0.0
        assert result.cost("B") == 1.0
        assert result.cost("D") == 3.0
        assert result.node_path("D") == ("A", "B", "C", "D")

    def test_weighted_triangle_prefers_detour(self, triangle):
        # direct A-C weighs 5, detour A-B-C weighs 2.
        weights = {"A-B": 1.0, "B-C": 1.0, "A-C": 5.0}
        result = search(triangle, "A", lambda l: weights[l.name])
        assert result.cost("C") == pytest.approx(2.0)
        assert result.node_path("C") == ("A", "B", "C")

    def test_direct_wins_when_cheaper(self, triangle):
        weights = {"A-B": 3.0, "B-C": 3.0, "A-C": 5.0}
        result = search(triangle, "A", lambda l: weights[l.name])
        assert result.node_path("C") == ("A", "C")
        assert result.cost("C") == pytest.approx(5.0)

    def test_source_path_is_itself(self, line):
        result = search(line, "B", unit_weight)
        assert result.node_path("B") == ("B",)
        assert result.cost("B") == 0.0

    def test_unknown_source_rejected(self, line):
        with pytest.raises(TopologyError):
            search(line, "Z", unit_weight)

    def test_negative_weight_rejected(self, line):
        with pytest.raises(RoutingError):
            search(line, "A", lambda _l: -1.0)

    def test_nan_weight_rejected(self, line):
        with pytest.raises(RoutingError):
            search(line, "A", lambda _l: float("nan"))

    def test_unreachable_node_absent(self):
        topology = Topology()
        for uid in "ABC":
            topology.add_node(Node(uid))
        topology.add_link(Link("A", "B", capacity_mbps=1.0))
        result = search(topology, "A", unit_weight)
        assert not result.reaches("C")
        with pytest.raises(RoutingError):
            result.cost("C")
        with pytest.raises(RoutingError):
            result.path("C")

    def test_zero_weight_links_allowed(self, line):
        result = search(line, "A", lambda _l: 0.0)
        assert result.cost("D") == 0.0

    def test_matches_networkx_on_grnet(self, grnet_8am):
        networkx = pytest.importorskip("networkx")
        weights = weight_table(grnet_8am)
        graph = networkx.Graph()
        for link in grnet_8am.links():
            graph.add_edge(link.a_uid, link.b_uid, weight=weights[link.name])
        ours = search(grnet_8am, "U2", lambda l: weights[l.name])
        reference = networkx.single_source_dijkstra_path_length(graph, "U2")
        for uid, expected in reference.items():
            assert ours.cost(uid) == pytest.approx(expected)


class TestTraceMode:
    def test_no_trace_by_default(self, line):
        assert search(line, "A", unit_weight).steps == []

    def test_one_step_per_settled_node(self, grnet_8am):
        result = search(grnet_8am, "U2", unit_weight, trace=True)
        assert len(result.steps) == grnet_8am.node_count

    def test_first_step_settles_source(self, line):
        result = search(line, "A", unit_weight, trace=True)
        assert result.steps[0].settled == ("A",)
        assert result.steps[0].distances == {"B": 1.0}

    def test_settled_sets_grow_monotonically(self, grnet_8am):
        result = search(grnet_8am, "U1", unit_weight, trace=True)
        for earlier, later in zip(result.steps, result.steps[1:]):
            assert set(earlier.settled) < set(later.settled)

    def test_final_step_matches_result_distances(self, grnet_8am):
        result = search(grnet_8am, "U2", unit_weight, trace=True)
        final = result.steps[-1]
        for uid, dist in result.distances.items():
            if uid != "U2":
                assert final.distances[uid] == pytest.approx(dist)

    def test_distance_label_unreached_marker(self, line):
        result = search(line, "A", unit_weight, trace=True)
        assert result.steps[0].distance_label("D") == UNREACHED
        assert result.steps[0].path_label("D") == "-"

    def test_distance_label_formatting(self, line):
        result = search(line, "A", unit_weight, trace=True)
        assert result.steps[0].distance_label("B") == "1.000"
        assert result.steps[-1].path_label("D") == "A,B,C,D"

    def test_tentative_distances_never_increase(self, grnet_8am):
        weights = weight_table(grnet_8am)
        result = search(grnet_8am, "U2", lambda l: weights[l.name], trace=True)
        for earlier, later in zip(result.steps, result.steps[1:]):
            for uid, dist in earlier.distances.items():
                assert later.distances[uid] <= dist + 1e-12
