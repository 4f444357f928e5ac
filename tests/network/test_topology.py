"""Unit tests for the Topology container."""

import pytest

from repro.errors import TopologyError
from repro.network.link import Link
from repro.network.node import Node
from repro.network.topology import Topology


class TestConstruction:
    def test_add_and_lookup_nodes(self, triangle):
        assert triangle.node_count == 3
        assert triangle.node("A").uid == "A"
        assert "B" in triangle.node_uids()
        assert "Z" not in triangle.node_uids()

    def test_duplicate_node_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_node(Node("A"))

    def test_unknown_node_lookup_raises(self, triangle):
        with pytest.raises(TopologyError):
            triangle.node("Z")

    def test_link_before_nodes_rejected(self):
        topology = Topology()
        topology.add_node(Node("A"))
        with pytest.raises(TopologyError):
            topology.add_link(Link("A", "B", capacity_mbps=1.0))

    def test_parallel_link_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_link(Link("A", "B", capacity_mbps=5.0))

    def test_duplicate_link_name_rejected(self):
        topology = Topology()
        for uid in "ABC":
            topology.add_node(Node(uid))
        topology.add_link(Link("A", "B", capacity_mbps=1.0, name="trunk"))
        with pytest.raises(TopologyError):
            topology.add_link(Link("B", "C", capacity_mbps=1.0, name="trunk"))


class TestLookup:
    def test_link_between_either_direction(self, triangle):
        assert triangle.link_between("A", "B") is triangle.link_between("B", "A")

    def test_link_between_missing_raises(self, line):
        with pytest.raises(TopologyError):
            line.link_between("A", "D")

    def test_has_link_between(self, triangle):
        assert triangle.has_link_between("A", "C")
        assert not triangle.has_link_between("A", "A")

    def test_link_named(self, triangle):
        assert triangle.link_named("A-B").key == ("A", "B")
        with pytest.raises(TopologyError):
            triangle.link_named("nope")

    def test_links_at_and_degree(self, triangle, line):
        assert len(triangle.links_at("A")) == 2
        assert {l.name for l in triangle.links_at("B")} == {"A-B", "B-C"}
        assert len(line.links_at("A")) == 1
        assert len(line.links_at("B")) == 2

    def test_neighbors(self, line):
        assert sorted(line.neighbors("B")) == ["A", "C"]
        assert line.neighbors("A") == ["B"]

    def test_links_at_unknown_node(self, triangle):
        with pytest.raises(TopologyError):
            triangle.links_at("Z")

    def test_node_uids_order(self, line):
        assert line.node_uids() == ["A", "B", "C", "D"]


class TestAnalysis:
    def test_connected(self, triangle, line):
        assert triangle.is_connected()
        assert line.is_connected()

    def test_disconnected_detected(self):
        topology = Topology()
        for uid in "ABCD":
            topology.add_node(Node(uid))
        topology.add_link(Link("A", "B", capacity_mbps=1.0))
        topology.add_link(Link("C", "D", capacity_mbps=1.0))
        assert not topology.is_connected()
        with pytest.raises(TopologyError):
            topology.validate()

    def test_isolated_node_fails_validation(self):
        topology = Topology()
        for uid in "ABC":
            topology.add_node(Node(uid))
        topology.add_link(Link("A", "B", capacity_mbps=1.0))
        with pytest.raises(TopologyError, match="no links"):
            topology.validate()

    def test_empty_topology_is_connected(self):
        assert Topology().is_connected()

    def test_path_links(self, line):
        links = line.path_links(["A", "B", "C"])
        assert [l.name for l in links] == ["A-B", "B-C"]

    def test_path_links_invalid_hop(self, line):
        with pytest.raises(TopologyError):
            line.path_links(["A", "C"])

    def test_path_links_single_node_is_empty(self, line):
        assert line.path_links(["A"]) == []
