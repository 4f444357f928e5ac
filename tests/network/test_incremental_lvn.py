"""Unit tests: the cached LVN table across routing epochs."""

from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.network.link import Link
from repro.network.node import Node
from tests.reference.lvn import weight_table
from tests.memoized_vra import memoized_vra


def cached_vra(topology):
    """A cached VRA on the ground-truth path: ``weights()`` is the table
    the routing cache holds since its last flush."""
    return memoized_vra(topology)


class TestIncrementalLvnTable:
    """The LVN table across epochs: one cold build per flush, whatever
    moved it ("patch" in these ids is the next epoch's table)."""

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
        table = vra.weights()
        assert table == weight_table(topology)
        assert list(table) == list(weight_table(topology))

    def test_patch_recomputes_neighbors_of_affected_nodes(self):
        # Patra-Athens traffic moves NV(U1) and NV(U2), so every link at
        # U1/U2 is repriced even though only one link's traffic moved.
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        vra = cached_vra(topology)
        before = vra.weights()
        topology.link_named("Patra-Athens").set_background_mbps(1.9)
        table = vra.weights()
        assert table == weight_table(topology)
        assert table["Patra-Ioannina"] != before["Patra-Ioannina"]
        assert table["Athens-Heraklio"] != before["Athens-Heraklio"]

    def test_patch_is_copy_on_write(self):
        # A table handed out under an older epoch is never mutated by a
        # later one: past decisions' audit state stays what they saw.
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        vra = cached_vra(topology)
        base = vra.weights()
        snapshot = dict(base)
        topology.link_named("Patra-Athens").set_background_mbps(1.9)
        table = vra.weights()
        assert table is not base
        assert base == snapshot

    def test_offline_flip_produces_delta_even_at_same_weight(self):
        # No weight moves, yet the flip is a new epoch: the tree cached
        # over the link is not handed out again.
        topology = build_grnet_topology()
        vra = cached_vra(topology)
        holders = ["U1"]
        assert vra.decide("U2", "t", holders).path.nodes == ("U2", "U1")
        topology.link_named("Patra-Athens").online = False
        assert vra.weights() == weight_table(topology)
        assert vra.decide("U2", "t", holders).path.nodes == ("U2", "U3", "U4", "U1")
        assert vra.cache_stats.invalidations == 1

    def test_new_link_patches_to_cold_result(self):
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        vra = cached_vra(topology)
        vra.weights()
        topology.add_node(Node("U7", name="Larissa"))
        topology.add_link(Link("U7", "U1", capacity_mbps=4.0, name="Larissa-Athens"))
        table = vra.weights()
        assert table == weight_table(topology)
        assert list(table) == list(weight_table(topology))
