"""Unit tests: the LVN table across epochs, tree revalidation, delta cache."""

from repro.core.lvn import weight_table
from repro.core.vra import VirtualRoutingAlgorithm
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.network.link import Link
from repro.network.node import Node
from repro.network.routing.cache import RoutingCache
from repro.network.routing.dijkstra import LinkDelta, dijkstra, tree_unaffected
from repro.network.topology import Topology


def cached_vra(topology):
    """A cached VRA on the ground-truth epoch: ``weights()`` builds the
    table, ``_delta_probe()`` is what the cache asks on an epoch change."""
    return VirtualRoutingAlgorithm(
        topology,
        epoch_of=lambda: (topology.traffic_version, topology.state_version),
    )


class TestIncrementalLvnTable:
    """The LVN table across epochs: one cold build, diffed with the last."""

    def test_patch_before_rebuild_returns_none(self):
        # No previous table: the one transition that is not a diff.
        topology = build_grnet_topology()
        assert cached_vra(topology)._delta_probe() is None

    def test_rebuild_matches_cold_weight_table(self):
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        assert cached_vra(topology).weights() == weight_table(topology)

    def test_patch_after_traffic_change_is_bit_for_bit(self):
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        vra = cached_vra(topology)
        vra.weights()
        topology.link_named("Patra-Athens").set_background_mbps(1.7)
        table, deltas = vra._delta_probe()
        assert table == weight_table(topology)
        assert list(table) == list(weight_table(topology))
        assert any(d.link.name == "Patra-Athens" for d in deltas)

    def test_patch_recomputes_neighbors_of_affected_nodes(self):
        # Patra-Athens traffic moves NV(U1) and NV(U2), so every link at
        # U1/U2 is repriced even though only one link's traffic moved.
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        vra = cached_vra(topology)
        before = vra.weights()
        topology.link_named("Patra-Athens").set_background_mbps(1.9)
        table, deltas = vra._delta_probe()
        assert table == weight_table(topology)
        assert table["Patra-Ioannina"] != before["Patra-Ioannina"]
        assert table["Athens-Heraklio"] != before["Athens-Heraklio"]
        moved = {d.link.name: (d.old_weight, d.new_weight) for d in deltas}
        assert moved == {
            name: (before[name], table[name])
            for name in table
            if table[name] != before[name]
        }

    def test_unchanged_dirty_link_yields_same_table_object(self):
        # The SNMP drumbeat: an epoch in which no value actually moved
        # hands back the same dict object and zero deltas.
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        vra = cached_vra(topology)
        base = vra.weights()
        link = topology.link_named("Patra-Athens")
        original = link.background_mbps
        link.set_background_mbps(0.0)
        link.set_background_mbps(original)  # the epoch moved, the value did not
        table, deltas = vra._delta_probe()
        assert table is base
        assert deltas == []
        # ...and the next epoch is still diffed against that same object.
        link.set_background_mbps(1.9)
        table, deltas = vra._delta_probe()
        assert table is not base and table == weight_table(topology)
        assert {d.old_weight for d in deltas} <= set(base.values())

    def test_patch_is_copy_on_write(self):
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        vra = cached_vra(topology)
        base = vra.weights()
        snapshot = dict(base)
        topology.link_named("Patra-Athens").set_background_mbps(1.9)
        table, _ = vra._delta_probe()
        assert table is not base
        assert base == snapshot  # past decisions' audit state untouched

    def test_offline_flip_produces_delta_even_at_same_weight(self):
        topology = build_grnet_topology()
        vra = cached_vra(topology)
        vra.weights()
        link = topology.link_named("Patra-Athens")
        link.online = False
        table, deltas = vra._delta_probe()
        assert table == weight_table(topology)
        flip = [d for d in deltas if d.link.name == "Patra-Athens"]
        assert flip and flip[0].was_online and not flip[0].now_online
        assert flip[0].old_weight == flip[0].new_weight

    def test_new_link_patches_to_cold_result(self):
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        vra = cached_vra(topology)
        vra.weights()
        topology.add_node(Node("U7", name="Larissa"))
        topology.add_link(Link("U7", "U1", capacity_mbps=4.0, name="Larissa-Athens"))
        table, deltas = vra._delta_probe()
        assert table == weight_table(topology)
        assert list(table) == list(weight_table(topology))
        new = [d for d in deltas if d.link.name == "Larissa-Athens"]
        assert new and new[0].old_weight is None and new[0].now_online
        assert not new[0].was_online


def grnet_tree(source="U2"):
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    weights = weight_table(topology)
    return topology, weights, dijkstra(topology, source, lambda l: weights[l.name])


class TestTreeUnaffected:
    def test_offline_before_and_after_survives(self):
        topology, weights, tree = grnet_tree()
        link = topology.link_named("Patra-Athens")
        delta = LinkDelta(link, weights[link.name], 99.0, was_online=False, now_online=False)
        assert tree_unaffected(tree, delta)

    def test_removal_of_tree_edge_fails(self):
        topology, weights, tree = grnet_tree("U2")
        # Patra's links are tree edges of any tree rooted at Patra.
        link = topology.link_named("Patra-Athens")
        delta = LinkDelta(link, weights[link.name], weights[link.name], True, False)
        assert not tree_unaffected(tree, delta)

    def test_removal_of_non_tree_edge_survives(self):
        topology, weights, tree = grnet_tree("U2")
        non_tree = [
            link for link in topology.links()
            if tree.predecessors.get(link.a_uid) != link.b_uid
            and tree.predecessors.get(link.b_uid) != link.a_uid
        ]
        assert non_tree  # GRNET has a cycle, so some edge is non-tree
        link = non_tree[0]
        delta = LinkDelta(link, weights[link.name], weights[link.name], True, False)
        assert tree_unaffected(tree, delta)
        # Soundness: a fresh run without the link really is identical.
        link.online = False
        fresh = dijkstra(topology, "U2", lambda l: weights[l.name])
        assert fresh.distances == tree.distances
        assert fresh.predecessors == tree.predecessors

    def test_weight_change_on_tree_edge_fails(self):
        topology, weights, tree = grnet_tree("U2")
        link = topology.link_named("Patra-Athens")
        delta = LinkDelta(link, weights[link.name], weights[link.name] + 0.5, True, True)
        assert not tree_unaffected(tree, delta)

    def test_insertion_strict_bound(self):
        topology, weights, tree = grnet_tree("U2")
        link = topology.link_named("Xanthi-Heraklio")
        du, dv = tree.distances[link.a_uid], tree.distances[link.b_uid]
        gap = abs(du - dv)
        heavy = LinkDelta(link, None, gap + 1.0, was_online=False, now_online=True)
        assert tree_unaffected(tree, heavy)
        light = LinkDelta(link, None, max(gap - 1e-6, 0.0), was_online=False, now_online=True)
        assert not tree_unaffected(tree, light)

    def test_insertion_reaching_unreached_node_fails(self):
        topology = Topology(name="line")
        for uid in ("A", "B", "C"):
            topology.add_node(Node(uid))
        ab = topology.add_link(Link("A", "B", capacity_mbps=10.0, name="A-B"))
        bc = topology.add_link(Link("B", "C", capacity_mbps=10.0, name="B-C"))
        bc.online = False
        weights = {"A-B": 1.0, "B-C": 1.0}
        tree = dijkstra(topology, "A", lambda l: weights[l.name])
        assert not tree.reaches("C")
        delta = LinkDelta(bc, 1.0, 1.0, was_online=False, now_online=True)
        assert not tree_unaffected(tree, delta)
        # A live change on the tree edge A-B is conservatively rejected too.
        assert not tree_unaffected(tree, LinkDelta(ab, 1.0, 2.0, True, True))


class TestRoutingCacheDeltas:
    def _weights(self):
        return {"A-B": 1.0}

    def test_probe_success_counts_partial_and_keeps_trees(self):
        topology = Topology(name="pair")
        topology.add_node(Node("A"))
        topology.add_node(Node("B"))
        topology.add_link(Link("A", "B", capacity_mbps=10.0, name="A-B"))
        weights = self._weights()
        cache = RoutingCache(max_trees=4, delta_probe=lambda: (weights, []))
        cache.weights(1, lambda: weights)
        tree = cache.tree(1, "A", lambda: dijkstra(topology, "A", lambda l: weights[l.name]))
        # Epoch advances; the probe absorbs it with zero deltas.
        computes = []
        again = cache.tree(2, "A", lambda: computes.append(1))
        assert again is tree
        assert not computes
        assert cache.stats.partial_invalidations == 1
        assert cache.stats.full_invalidations == 0
        assert cache.stats.invalidations == 1

    def test_probe_none_falls_back_to_full_flush(self):
        topology = Topology(name="pair")
        topology.add_node(Node("A"))
        topology.add_node(Node("B"))
        topology.add_link(Link("A", "B", capacity_mbps=10.0, name="A-B"))
        weights = self._weights()
        cache = RoutingCache(max_trees=4, delta_probe=lambda: None)
        cache.weights(1, lambda: weights)
        cache.tree(1, "A", lambda: dijkstra(topology, "A", lambda l: weights[l.name]))
        computes = []

        def recompute():
            computes.append(1)
            return dijkstra(topology, "A", lambda l: weights[l.name])

        cache.tree(2, "A", recompute)
        assert computes
        assert cache.stats.full_invalidations == 1
        assert cache.stats.partial_invalidations == 0

    def test_failing_delta_reroots_only_affected_tree(self):
        topology = Topology(name="triangle")
        for uid in ("A", "B", "C"):
            topology.add_node(Node(uid))
        topology.add_link(Link("A", "B", capacity_mbps=10.0, name="A-B"))
        topology.add_link(Link("B", "C", capacity_mbps=10.0, name="B-C"))
        topology.add_link(Link("A", "C", capacity_mbps=10.0, name="A-C"))
        weights = {"A-B": 1.0, "B-C": 1.0, "A-C": 5.0}
        ab = topology.link_named("A-B")
        delta = LinkDelta(ab, 1.0, 1.0, was_online=True, now_online=False)
        cache = RoutingCache(max_trees=4, delta_probe=lambda: (weights, [delta]))
        for source in ("A", "B", "C"):
            cache.tree(1, source, lambda s=source: dijkstra(topology, s, lambda l: weights[l.name]))
        cache.weights(2, lambda: weights)  # trigger the epoch transition
        # A-B is a tree edge of every source's tree here, so all reroot.
        assert cache.stats.trees_rerooted == 3
        assert cache.stats.trees_repaired == 0
        assert cache.stats.dirty_links == 1
