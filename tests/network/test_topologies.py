"""Unit tests for the synthetic topology generator, and the service on
star, ring, tree, grid and random shapes."""

import random

import pytest

from repro.errors import TopologyError
from repro.network.link import Link
from repro.network.node import Node
from repro.network.topologies import random_topology
from repro.network.topology import Topology


def explicit_topology(name, pairs):
    """A validated topology with one 10 Mbps link per (a, b) pair, in order."""
    topology = Topology(name=name)
    for a, b in pairs:
        for uid in (a, b):
            if uid not in topology.node_uids():
                topology.add_node(Node(uid))
        topology.add_link(Link(a, b, capacity_mbps=10.0))
    topology.validate()
    return topology


STAR = [("H0", f"L{i}") for i in range(5)]
RING = [(f"R{i}", f"R{(i + 1) % 6}") for i in range(6)]
TREE = [("T0", f"T{c}") for c in (1, 2, 3)] + [
    (f"T{parent}", f"T{3 * parent + k}") for parent in (1, 2, 3) for k in (1, 2, 3)
]
GRID = [(f"G{r}.{c}", f"G{r}.{c + 1}") for r in range(3) for c in range(2)] + [
    (f"G{r}.{c}", f"G{r + 1}.{c}") for r in range(2) for c in range(3)
]


class TestRandom:
    def test_connected_with_tree_baseline(self):
        topology = random_topology(10, rng=random.Random(3))
        assert topology.node_count == 10
        assert topology.link_count == 9
        assert topology.is_connected()

    def test_extra_links_added(self):
        topology = random_topology(10, extra_links=5, rng=random.Random(3))
        assert topology.link_count == 14

    def test_deterministic_under_seed(self):
        a = random_topology(8, extra_links=4, rng=random.Random(7))
        b = random_topology(8, extra_links=4, rng=random.Random(7))
        assert {l.key for l in a.links()} == {l.key for l in b.links()}

    def test_clique_saturation_stops_early(self):
        topology = random_topology(3, extra_links=100, rng=random.Random(1))
        assert topology.link_count == 3  # the triangle is the clique

    def test_validation(self):
        with pytest.raises(TopologyError):
            random_topology(1)
        with pytest.raises(TopologyError):
            random_topology(5, extra_links=-1)


class TestServiceOnGeneratedTopologies:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: explicit_topology("star-5", STAR),
            lambda: explicit_topology("ring-6", RING),
            lambda: explicit_topology("tree-d2b3", TREE),
            lambda: explicit_topology("grid-3x3", GRID),
            lambda: random_topology(8, extra_links=4, rng=random.Random(5)),
        ],
    )
    def test_end_to_end_delivery(self, factory):
        from repro.core.service import ServiceConfig, VoDService
        from repro.sim.engine import Simulator
        from repro.storage.video import VideoTitle

        topology = factory()
        sim = Simulator()
        service = VoDService(
            sim, topology, ServiceConfig(cluster_mb=50.0, use_reported_stats=False)
        )
        uids = topology.node_uids()
        service.seed_title(uids[-1], VideoTitle("m", size_mb=100.0, duration_s=600.0))
        request, session, _ = service.request_by_home(uids[0], "m")
        sim.run(until=sim.now + 4 * 3600.0)
        assert request.finished and session.record.completed
