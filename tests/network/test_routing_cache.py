"""Unit tests for the epoch-versioned routing cache and its version
counters (links, topology, database)."""

import pytest

from repro.database.records import LinkEntry, LinkStats
from repro.database.store import ServiceDatabase
from repro.network.link import Link
from repro.network.node import Node
from repro.network.routing.cache import RoutingCache, RoutingCacheStats
from repro.network.routing.dijkstra import dijkstra
from repro.network.topology import Topology


def build_pair():
    topology = Topology(name="pair")
    topology.add_node(Node("A"))
    topology.add_node(Node("B"))
    link = topology.add_link(Link("A", "B", capacity_mbps=10.0))
    return topology, link


class TestLinkVersions:
    def test_online_flip_bumps_state_version(self):
        link = Link("A", "B", capacity_mbps=10.0)
        before = link.state_version
        link.online = False
        assert link.state_version == before + 1
        link.online = True
        assert link.state_version == before + 2

    def test_same_online_value_does_not_bump(self):
        link = Link("A", "B", capacity_mbps=10.0)
        before = link.state_version
        link.online = True
        assert link.state_version == before

    def test_background_write_bumps_traffic_version(self):
        link = Link("A", "B", capacity_mbps=10.0)
        before = link.traffic_version
        link.set_background_mbps(3.0)
        assert link.traffic_version == before + 1
        # Writing the identical value is not a change.
        link.set_background_mbps(3.0)
        assert link.traffic_version == before + 1

    def test_reserve_release_bump_traffic_version(self):
        link = Link("A", "B", capacity_mbps=10.0)
        before = link.traffic_version
        link.reserve(2.0)
        link.release(2.0)
        assert link.traffic_version == before + 2

    def test_zero_reserve_is_not_a_change(self):
        link = Link("A", "B", capacity_mbps=10.0)
        before = link.traffic_version
        link.reserve(0.0)
        link.release(0.0)
        assert link.traffic_version == before


class TestTopologyVersions:
    def test_construction_bumps_state_version(self):
        topology, _ = build_pair()
        assert topology.state_version == 3  # two nodes + one link

    def test_link_failure_bumps_topology_state_version(self):
        topology, link = build_pair()
        before = topology.state_version
        link.online = False
        assert topology.state_version == before + 1
        assert topology.traffic_version == 0

    def test_traffic_mutations_bump_topology_traffic_version(self):
        topology, link = build_pair()
        state_before = topology.state_version
        link.set_background_mbps(1.0)
        link.reserve(0.5)
        link.release(0.5)
        assert topology.traffic_version == 3
        assert topology.state_version == state_before

    def test_lookup_by_name_mutation_is_tracked(self):
        topology, _ = build_pair()
        before = topology.state_version
        topology.link_named("A-B").online = False
        assert topology.state_version == before + 1


class TestDatabaseVersion:
    def test_update_link_stats_bumps_version(self):
        db = ServiceDatabase()
        db.register_link(
            LinkEntry(link_name="A-B", endpoints=("A", "B"), total_bandwidth_mbps=10.0)
        )
        before = db.link_stats_version
        db.update_link_stats(
            "A-B", LinkStats(used_mbps=1.0, utilization=0.1, timestamp=5.0)
        )
        assert db.link_stats_version == before + 1

    def test_register_link_bumps_version(self):
        db = ServiceDatabase()
        before = db.link_stats_version
        db.register_link(
            LinkEntry(link_name="A-B", endpoints=("A", "B"), total_bandwidth_mbps=10.0)
        )
        assert db.link_stats_version == before + 1


class TestRoutingCache:
    def tree_for(self, topology, source="A"):
        return dijkstra(topology, source, weight=lambda link: 1.0)

    def test_weights_hit_within_epoch(self):
        cache = RoutingCache()
        calls = []

        def compute():
            calls.append(1)
            return {"A-B": 1.0}

        first = cache.weights(("db", 1), compute)
        second = cache.weights(("db", 1), compute)
        assert first is second
        assert len(calls) == 1
        assert cache.stats.weight_hits == 1
        assert cache.stats.weight_misses == 1

    def test_epoch_change_invalidates(self):
        topology, _ = build_pair()
        cache = RoutingCache()
        cache.weights(("db", 1), lambda: {"A-B": 1.0})
        cache.tree(("db", 1), "A", lambda: self.tree_for(topology))
        cache.weights(("db", 2), lambda: {"A-B": 2.0})
        assert cache.stats.invalidations == 1
        # The tree cached under epoch 1 is gone.
        cache.tree(("db", 2), "A", lambda: self.tree_for(topology))
        assert cache.stats.tree_misses == 2
        assert cache.stats.tree_hits == 0

    def test_clear_preserves_counters(self):
        cache = RoutingCache()
        cache.weights(("db", 1), lambda: {})
        cache.clear()
        assert cache.token is None
        assert cache.stats.weight_misses == 1

    def test_stats_dict_and_hit_rate(self):
        stats = RoutingCacheStats(weight_hits=3, weight_misses=1)
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.as_dict()["weight_hits"] == 3
        assert RoutingCacheStats().hit_rate == 0.0
