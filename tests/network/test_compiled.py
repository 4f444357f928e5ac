"""Unit tests for the array-compiled routing core (TopologySnapshot)."""

import json

import pytest

from repro.core.lvn import node_validation
from repro.errors import ReproError, RoutingError, TopologyError
from repro.network.compiled import CompiledWeightTable, TopologySnapshot
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.network.link import Link
from repro.network.node import Node
from repro.network.topology import Topology
from tests.reference.dijkstra import dijkstra
from tests.reference.lvn import weight_table_with_nv


def kernel_tables(snapshot, *args):
    """The kernel's table and its NV list as the oracle's ``(table, nv)``."""
    table = snapshot.weight_table(*args)
    return table, dict(zip(snapshot._uids, table.node_values))


def small_topology():
    t = Topology(name="t")
    for uid in ["C", "A", "B", "D"]:
        t.add_node(Node(uid))
    t.add_link(Link("A", "B", capacity_mbps=10.0, name="ab"))
    t.add_link(Link("B", "C", capacity_mbps=20.0, name="bc"))
    t.add_link(Link("C", "D", capacity_mbps=10.0, name="cd"))
    t.add_link(Link("A", "D", capacity_mbps=5.0, name="ad"))
    return t


def assert_tables_identical(compiled, python):
    ct, cnv = compiled
    pt, pnv = python
    assert list(ct.items()) == list(pt.items())
    assert list(cnv.items()) == list(pnv.items())
    # Bit-for-bit, and plain python floats (numpy scalars would change
    # repr and break JSON round-trips of the audit trail).
    for value, expected in zip(ct.values(), pt.values()):
        assert repr(value) == repr(expected)
        assert type(value) is float
    assert json.dumps(ct) == json.dumps(pt)


class TestStructure:
    def test_node_rank_follows_sorted_uid_order(self):
        snap = TopologySnapshot(small_topology())
        # Positions follow insertion order (C, A, B, D); ranks sorted uids.
        assert snap._uids == ["C", "A", "B", "D"]
        assert snap._rank == [2, 0, 1, 3]

    def test_csr_segments_follow_links_at_order(self):
        topo = small_topology()
        snap = TopologySnapshot(topo)
        for p, uid in enumerate(snap._uids):
            names = [
                snap._link_names[snap._inc_link[j]]
                for j in range(snap._inc_off[p], snap._inc_off[p + 1])
            ]
            assert names == [link.name for link in topo.links_at(uid)]

    def test_online_flip_refreshes_mask_without_structure_rebuild(self):
        topo = small_topology()
        snap = TopologySnapshot(topo)
        token = snap.structure_token
        topo.link_named("ab").online = False
        snap.refresh()
        assert snap._online[snap._link_names.index("ab")] is False
        assert snap.structure_token == token

    def test_growth_triggers_structure_rebuild(self):
        topo = small_topology()
        snap = TopologySnapshot(topo)
        token = snap.structure_token
        topo.add_node(Node("E"))
        topo.add_link(Link("D", "E", capacity_mbps=10.0, name="de"))
        snap.refresh()
        assert snap.structure_token != token
        assert "de" in snap._link_names
        assert "E" in snap._uids

    def test_refresh_is_noop_when_version_unchanged(self):
        topo = small_topology()
        snap = TopologySnapshot(topo)
        topo.link_named("ab").set_background_mbps(3.0)  # traffic only
        token = snap.structure_token
        snap.refresh()
        assert snap.structure_token == token


class TestWeightKernel:
    def test_grnet_table_bit_identical(self):
        topo = build_grnet_topology()
        apply_traffic_sample(topo, "10am")
        snap = TopologySnapshot(topo)
        assert_tables_identical(
            kernel_tables(snap, None, 10.0),
            weight_table_with_nv(topo, None, 10.0),
        )

    def test_offline_links_excluded_like_python_path(self):
        topo = small_topology()
        topo.link_named("ab").set_background_mbps(4.0)
        topo.link_named("bc").online = False
        snap = TopologySnapshot(topo)
        assert_tables_identical(
            kernel_tables(snap, None, 10.0),
            weight_table_with_nv(topo, None, 10.0),
        )

    def test_all_offline_node_gets_nv_zero_in_both_paths(self):
        # The shared degenerate-topology rule: a node whose every link is
        # offline prices at NV 0.0 — no error — in both implementations.
        topo = small_topology()
        topo.link_named("ab").online = False
        topo.link_named("ad").online = False  # node A fully offline
        snap = TopologySnapshot(topo)
        compiled = kernel_tables(snap, None, 10.0)
        python = weight_table_with_nv(topo, None, 10.0)
        assert compiled[1]["A"] == 0.0
        assert node_validation(topo, "A") == 0.0
        assert_tables_identical(compiled, python)

    def test_linkless_node_raises_same_error_in_both_paths(self):
        topo = Topology(name="t")
        topo.add_node(Node("A"))
        topo.add_node(Node("B"))
        topo.add_node(Node("C"))
        topo.add_link(Link("A", "B", capacity_mbps=10.0))
        snap = TopologySnapshot(topo)
        with pytest.raises(ReproError) as compiled_err:
            kernel_tables(snap, None, 10.0)
        with pytest.raises(ReproError) as python_err:
            weight_table_with_nv(topo, None, 10.0)
        assert str(compiled_err.value) == str(python_err.value)
        assert "'C'" in str(compiled_err.value)
        # With a load term the first failing node in node order wins: a
        # negative load on B before the linkless C, else C itself.
        for load, culprit in ((-1.0, "'B'"), (0.5, "'C'")):
            node_load = {"A": 0.0, "B": load}.get
            with pytest.raises(ReproError) as compiled_err:
                kernel_tables(snap, None, 10.0, node_load)
            with pytest.raises(ReproError) as python_err:
                weight_table_with_nv(topo, None, 10.0, node_load)
            assert str(compiled_err.value) == str(python_err.value)
            assert culprit in str(compiled_err.value)

    def test_bad_normalization_constant_raises_repro_error(self):
        snap = TopologySnapshot(small_topology())
        with pytest.raises(ReproError, match="normalization constant"):
            kernel_tables(snap, None, 0.0)

    def test_used_of_called_once_per_link(self):
        topo = small_topology()
        snap = TopologySnapshot(topo)
        calls = []
        kernel_tables(snap, lambda link: calls.append(link.name) or 0.0, 10.0)
        assert sorted(calls) == sorted(link.name for link in topo.links())

    def test_table_carries_aligned_value_array(self):
        topo = small_topology()
        snap = TopologySnapshot(topo)
        table = snap.weight_table(None, 10.0)
        assert isinstance(table, CompiledWeightTable)
        assert table.link_values == list(table.values())
        assert table.structure_token == snap.structure_token


class TestCompiledDijkstra:
    def test_grnet_trees_bit_identical(self):
        topo = build_grnet_topology()
        apply_traffic_sample(topo, "4pm")
        snap = TopologySnapshot(topo)
        table = snap.weight_table(None, 10.0)
        for source in topo.node_uids():
            compiled = snap.dijkstra(source, table)
            python = dijkstra(topo, source, lambda link: table[link.name])
            assert compiled.source == python.source
            assert list(compiled.distances.items()) == list(python.distances.items())
            assert list(compiled.predecessors.items()) == list(
                python.predecessors.items()
            )
            assert compiled.node_path("U2") == python.node_path("U2")

    def test_accepts_plain_dict_weights(self):
        topo = small_topology()
        snap = TopologySnapshot(topo)
        table = dict(snap.weight_table(None, 10.0))
        python = dijkstra(topo, "A", lambda link: table[link.name])
        compiled = snap.dijkstra("A", table)
        assert compiled.distances == python.distances

    def test_unknown_source_matches_python_error(self):
        topo = small_topology()
        snap = TopologySnapshot(topo)
        with pytest.raises(TopologyError) as compiled_err:
            snap.dijkstra("Z", {})
        with pytest.raises(TopologyError) as python_err:
            dijkstra(topo, "Z", lambda link: 1.0)
        assert str(compiled_err.value) == str(python_err.value)

    def test_invalid_weight_matches_python_error(self):
        topo = small_topology()
        snap = TopologySnapshot(topo)
        weights = {name: 1.0 for name in snap._link_names}
        weights["bc"] = -2.0
        with pytest.raises(RoutingError) as compiled_err:
            snap.dijkstra("A", weights)
        with pytest.raises(RoutingError) as python_err:
            dijkstra(topo, "A", lambda link: weights[link.name])
        assert str(compiled_err.value) == str(python_err.value)

    def test_offline_negative_weight_never_scanned(self):
        # The textbook scan validates weights lazily and skips offline links
        # before reading their weight; the kernel must too.
        topo = small_topology()
        topo.link_named("bc").online = False
        snap = TopologySnapshot(topo)
        weights = {name: 1.0 for name in snap._link_names}
        weights["bc"] = float("nan")
        compiled = snap.dijkstra("A", weights)
        python = dijkstra(topo, "A", lambda link: weights[link.name])
        assert list(compiled.distances.items()) == list(python.distances.items())

    def test_partition_leaves_unreachable_absent(self):
        topo = small_topology()
        topo.link_named("cd").online = False
        topo.link_named("bc").online = False
        snap = TopologySnapshot(topo)
        table = snap.weight_table(None, 10.0)
        compiled = snap.dijkstra("C", table)
        python = dijkstra(topo, "C", lambda link: table[link.name])
        assert not compiled.reaches("A")
        assert list(compiled.distances.items()) == list(python.distances.items())
        assert list(compiled.predecessors.items()) == list(python.predecessors.items())

    def test_stale_table_after_rebuild_falls_back_to_dict_lookup(self):
        topo = small_topology()
        snap = TopologySnapshot(topo)
        table = snap.weight_table(None, 10.0)
        topo.add_node(Node("E"))
        topo.add_link(Link("D", "E", capacity_mbps=10.0, name="de"))
        fresh = snap.weight_table(None, 10.0)  # refresh + rebuild
        assert table.structure_token != snap.structure_token
        # The stale table no longer covers link "de"; using it must fail
        # loudly (KeyError), never silently reuse a misaligned array.
        with pytest.raises(KeyError):
            snap.dijkstra("A", table)
        result = snap.dijkstra("A", fresh)
        assert result.reaches("E")
