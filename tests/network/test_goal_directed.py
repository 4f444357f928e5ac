"""Goal-directed compiled search: stop rule, prefix results, cache reuse.

``TopologySnapshot.dijkstra(source, weights, targets)`` stops at the nearest
target and returns a prefix of the full tree; these tests pin the exactness
contract edge by edge (the randomized versions live in
``tests/properties/test_dijkstra_props.py``).
"""

import pytest

from repro.errors import RoutingError
from repro.network.compiled import TopologySnapshot
from repro.network.link import Link
from repro.network.node import Node
from repro.network.routing.cache import RoutingCache
from repro.network.routing.dijkstra import dijkstra
from repro.network.topology import Topology

INF = float("inf")


def build(edges):
    """``{"A-B": w}`` -> (topology, weights); nodes in first-seen order."""
    topology = Topology(name="t")
    for name in edges:
        for uid in name.split("-"):
            if not topology.has_node(uid):
                topology.add_node(Node(uid))
    for name in edges:
        a, b = name.split("-")
        topology.add_link(Link(a, b, capacity_mbps=10.0, name=name))
    return topology, dict(edges)


#: A line with a spur:  S -1- A -1- B -1- C -1- D,  A -5- E.
LINE = {"S-A": 1.0, "A-B": 1.0, "B-C": 1.0, "C-D": 1.0, "A-E": 5.0}


class TestStopRule:
    def test_stops_at_the_nearest_target(self):
        topology, weights = build(LINE)
        result = TopologySnapshot(topology).dijkstra("S", weights, ["D", "B"])
        assert not result.complete
        assert result.radius == 2.0
        assert list(result.distances.items()) == [("S", 0.0), ("A", 1.0), ("B", 2.0)]
        assert result.predecessors == {"S": None, "A": "S", "B": "A"}
        assert result.path("B").nodes == ("S", "A", "B")
        # Reached-but-unsettled nodes (E at a tentative 6.0) are not in it.
        assert not result.reaches("E") and not result.reaches("D")

    def test_no_targets_is_the_full_tree(self):
        topology, weights = build(LINE)
        result = TopologySnapshot(topology).dijkstra("S", weights)
        oracle = dijkstra(topology, "S", lambda link: weights[link.name])
        assert result.complete and result.radius == INF
        assert list(result.distances.items()) == list(oracle.distances.items())
        assert oracle.complete and oracle.radius == INF

    def test_ties_are_drained_before_stopping(self):
        # Y and X both at distance 2; the search settles X first or Y
        # first by uid, but must not stop until *both* are in.
        topology, weights = build({"S-Y": 2.0, "S-M": 1.0, "M-X": 1.0, "X-Z": 1.0})
        result = TopologySnapshot(topology).dijkstra("S", weights, ["Y", "X", "Z"])
        assert result.radius == 2.0 and not result.complete
        assert set(result.distances) == {"S", "M", "X", "Y"}
        nearest = min((result.distances[t], t) for t in ("X", "Y"))
        assert nearest == (2.0, "X")

    def test_heap_top_at_equal_distance_does_not_stop(self):
        # Zero-weight edge behind the target: Q ties with T through T
        # itself, so it is only pushed *after* T settles.
        topology, weights = build({"S-T": 1.0, "T-Q": 0.0, "Q-R": 1.0})
        result = TopologySnapshot(topology).dijkstra("S", weights, ["T"])
        assert list(result.distances.items()) == [("S", 0.0), ("T", 1.0), ("Q", 1.0)]

    def test_idle_network_settles_every_equidistant_node(self):
        topology, _ = build(LINE)
        idle = {name: 0.0 for name in LINE}
        result = TopologySnapshot(topology).dijkstra("S", idle, ["D"])
        assert result.complete  # radius 0 ties with everything
        assert set(result.distances.values()) == {0.0}
        assert len(result.distances) == topology.node_count

    def test_target_absent_from_topology_never_stops_the_search(self):
        topology, weights = build(LINE)
        snap = TopologySnapshot(topology)
        result = snap.dijkstra("S", weights, ["ghost"])
        assert result.complete and len(result.distances) == topology.node_count
        mixed = snap.dijkstra("S", weights, ["ghost", "C"])
        assert mixed.radius == 3.0 and not mixed.reaches("ghost")

    def test_unreachable_target_falls_through_to_the_complete_tree(self):
        topology, weights = build(LINE)
        topology.link_named("B-C").online = False
        result = TopologySnapshot(topology).dijkstra("S", weights, ["D"])
        assert result.complete and not result.reaches("D")
        assert set(result.distances) == {"S", "A", "B", "E"}

    def test_source_as_target_stops_at_radius_zero(self):
        topology, weights = build(LINE)
        result = TopologySnapshot(topology).dijkstra("S", weights, ["S"])
        assert list(result.distances) == ["S"] and result.radius == 0.0


class TestValidationFallback:
    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_invalid_weight_beyond_the_radius_raises_the_full_runs_error(self, bad):
        topology, weights = build(LINE)
        weights["C-D"] = bad  # two hops past the target
        snap = TopologySnapshot(topology)
        with pytest.raises(RoutingError) as full:
            snap.dijkstra("S", weights)
        with pytest.raises(RoutingError) as goal:
            snap.dijkstra("S", dict(weights), ["A"])
        with pytest.raises(RoutingError) as oracle:
            dijkstra(topology, "S", lambda link: weights[link.name])
        assert str(goal.value) == str(full.value) == str(oracle.value)
        assert "'C-D'" in str(goal.value)

    def test_invalid_weight_on_an_offline_link_is_never_scanned(self):
        topology, weights = build(LINE)
        weights["C-D"] = float("nan")
        topology.link_named("C-D").online = False
        result = TopologySnapshot(topology).dijkstra("S", weights, ["B"])
        # Searched in full (the table is suspect), but nothing to raise.
        assert result.complete and not result.reaches("D")

    def test_infinite_weight_is_valid_and_unreachable(self):
        topology, weights = build(LINE)
        weights["B-C"] = INF
        snap = TopologySnapshot(topology)
        assert snap.dijkstra("S", weights, ["D", "B"]).radius == 2.0  # goal-directed
        assert not snap.dijkstra("S", weights).reaches("C")


class TestWeightArrayMemo:
    def test_plain_dict_table_is_gathered_once(self):
        """Perf bug: a patched (plain ``dict``) table used to be re-gathered
        link by link on every Dijkstra call."""

        class CountingTable(dict):
            reads = 0

            def __getitem__(self, key):
                type(self).reads += 1
                return super().__getitem__(key)

        topology, weights = build(LINE)
        snap = TopologySnapshot(topology)
        table = CountingTable(weights)
        for source in ("S", "A", "B", "S"):
            snap.dijkstra(source, table, ["D"])
        assert CountingTable.reads == len(LINE)
        # A different table object — even an equal one — is gathered anew.
        snap.dijkstra("S", CountingTable(weights), ["D"])
        assert CountingTable.reads == 2 * len(LINE)

    def test_memo_dies_with_the_structure(self):
        topology, weights = build(LINE)
        snap = TopologySnapshot(topology)
        snap.dijkstra("S", weights)
        topology.add_node(Node("F"))
        topology.add_link(Link("D", "F", capacity_mbps=10.0, name="D-F"))
        with pytest.raises(KeyError):  # stale table, misaligned array refused
            snap.dijkstra("S", weights)


class TestRoutingCachePrefixes:
    def setup_method(self):
        self.topology, self.weights = build(LINE)
        self.snap = TopologySnapshot(self.topology)
        self.cache = RoutingCache()
        self.runs = []

    def tree(self, targets):
        def compute():
            self.runs.append(tuple(targets))
            return self.snap.dijkstra("S", self.weights, targets)

        return self.cache.tree(1, "S", compute, targets)

    def test_prefix_answers_any_target_inside_it(self):
        first = self.tree(["C"])
        assert self.tree(["B", "D"]) is first  # B inside: nearest is inside
        assert self.tree(["C"]) is first
        assert (self.cache.stats.tree_hits, self.cache.stats.tree_misses) == (2, 1)

    def test_short_prefix_is_researched_and_replaced(self):
        short = self.tree(["A"])
        longer = self.tree(["D", "E"])  # neither inside radius 1: a miss
        assert longer is not short and longer.radius == 4.0
        assert self.runs == [("A",), ("D", "E")]
        assert (self.cache.stats.tree_hits, self.cache.stats.tree_misses) == (0, 2)
        # The longer prefix took the slot: it now answers the first title too.
        assert self.tree(["A"]) is longer
        assert len(self.cache._trees) == 1

    def test_prefix_never_answers_a_full_tree_request(self):
        self.tree(["C"])
        full = self.tree([])
        assert full.complete
        assert self.tree(["ghost"]) is full and self.tree([]) is full
        assert self.cache.stats.tree_misses == 2
