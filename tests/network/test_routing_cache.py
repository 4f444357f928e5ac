"""Unit tests for the flush-driven routing cache and the version counters
(the topology's and the database's, read off the change feed)."""

import functools

import pytest

from repro.database.records import LinkEntry, LinkStats
from repro.database.store import ServiceDatabase
from repro.network.link import Link
from repro.network.node import Node
from repro.network.routing.cache import DecisionCacheStats, RoutingCache, RoutingCacheStats
from repro.network.topology import Topology
from tests.reference.dijkstra import dijkstra


def build_pair():
    topology = Topology(name="pair")
    topology.add_node(Node("A"))
    topology.add_node(Node("B"))
    link = topology.add_link(Link("A", "B", capacity_mbps=10.0))
    return topology, link


class TestLinkVersions:
    """A link publishes on its topology's feed, which the topology's
    counters read."""

    def test_online_flip_bumps_state_version(self):
        topology, link = build_pair()
        before = topology.state_version
        link.online = False
        assert topology.state_version == before + 1
        link.online = True
        assert topology.state_version == before + 2

    def test_same_online_value_does_not_bump(self):
        topology, link = build_pair()
        before = list(topology.feed.counts)
        link.online = True
        assert topology.feed.counts == before

    def test_background_write_bumps_traffic_version(self):
        topology, link = build_pair()
        before = topology.traffic_version
        link.set_background_mbps(3.0)
        assert topology.traffic_version == before + 1
        # Writing the identical value is not a change.
        link.set_background_mbps(3.0)
        assert topology.traffic_version == before + 1

    def test_reserve_release_bump_traffic_version(self):
        topology, link = build_pair()
        before = topology.traffic_version
        link.reserve(2.0)
        link.release(2.0)
        assert topology.traffic_version == before + 2

    def test_zero_reserve_is_not_a_change(self):
        topology, link = build_pair()
        before = list(topology.feed.counts)
        link.reserve(0.0)
        link.release(0.0)
        assert topology.feed.counts == before


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

        first = cache.weights(compute)
        cache.flush_decisions()  # an availability move keeps the table
        second = cache.weights(compute)
        assert first is second
        assert len(calls) == 1
        assert cache.stats.weight_hits == 1
        assert cache.stats.weight_misses == 1

    def test_epoch_change_invalidates(self):
        topology, _ = build_pair()
        cache = RoutingCache(search=lambda source, _w, _t: self.tree_for(topology, source))
        cache.tree("A", cache.weights(lambda: {"A-B": 1.0}))
        cache.flush()
        weights = cache.weights(lambda: {"A-B": 2.0})
        assert cache.stats.invalidations == 1
        # The tree cached before the flush is gone.
        cache.tree("A", weights)
        assert cache.stats.tree_misses == 2
        assert cache.stats.tree_hits == 0

    def test_a_flush_counts_only_when_it_drops_a_table_or_tree(self):
        cache = RoutingCache()
        cache.flush()  # nothing built yet
        assert cache.stats.invalidations == 0
        cache.weights(lambda: {"A-B": 1.0})
        for _ in range(5):  # a storm between two decisions
            cache.flush()
        assert cache.stats.invalidations == 1
        cache.weights(lambda: {"A-B": 2.0})
        assert cache.stats.weight_misses == cache.stats.invalidations + 1

    def test_both_flushes_drop_every_decision(self):
        cache = RoutingCache()

        def cold(home, title):  # what the pipeline's cold decide counts
            cache.decision_misses += 1
            return object()

        cache.replays = functools.lru_cache(maxsize=None)(cold)
        table = cache.weights(lambda: {"A-B": 1.0})
        for flush in (cache.flush_decisions, cache.flush):
            first = cache.replays("A", "movie")
            assert cache.replays("A", "movie") is first
            flush("key")  # a feed subscriber: the key is ignored
            assert cache.replays("A", "movie") is not first
            flush("key")
        assert cache.weights(dict) is not table  # only flush() dropped it
        assert cache.stats.invalidations == 1
        assert cache.decision_stats == DecisionCacheStats(hits=2, misses=4)

    def test_only_an_availability_flush_drops_the_poll_answers(self):
        cache = RoutingCache()
        cache.polls[("movie", None)] = (("A",), ())
        cache.flush()
        assert cache.polls
        cache.flush_decisions()
        assert cache.polls == {}

    def test_only_a_routing_flush_drops_the_routes(self):
        cache = RoutingCache()
        computed = []

        def compute(home, available):
            computed.append(home)
            return (available[0], None, cache.weights(dict))

        route = cache.route("A", ("B",), compute)
        cache.flush_decisions()
        assert cache.route("A", ("B",), compute) is route
        assert cache.stats.weight_hits == cache.stats.tree_hits == 1
        cache.flush()
        assert cache.route("A", ("B",), compute) is not route
        assert computed == ["A", "A"]

    def test_stats_dict_and_hit_rate(self):
        stats = RoutingCacheStats(weight_hits=3, weight_misses=1)
        assert stats.hit_rate == pytest.approx(0.75)
        assert RoutingCacheStats().hit_rate == 0.0
