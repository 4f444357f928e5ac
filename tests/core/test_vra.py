"""Unit tests for the Virtual Routing Algorithm (paper Figure 5)."""

import pytest

from repro.core.vra import VirtualRoutingAlgorithm
from repro.errors import RoutingError, TitleUnavailableError


class TestLocalShortcut:
    def test_home_holder_serves_locally(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        decision = vra.decide("U2", "movie", holders=["U2", "U4"])
        assert decision.served_locally
        assert decision.chosen_uid == "U2"
        assert decision.path.nodes == ("U2",)
        assert decision.cost == 0.0
        assert decision.dijkstra_result is None

    def test_home_holder_that_polls_out_is_skipped(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        decision = vra.decide(
            "U2", "movie", holders=["U2", "U4"], poll=lambda uid: uid != "U2"
        )
        assert not decision.served_locally
        assert decision.chosen_uid == "U4"


class TestRemoteSelection:
    def test_picks_cheapest_candidate(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        decision = vra.decide("U2", "movie", holders=["U4", "U5"])
        # Experiment A corrected: U4 via U2,U3,U4 (~0.218) beats U5 (~0.316).
        assert decision.chosen_uid == "U4"
        assert decision.path.nodes == ("U2", "U3", "U4")
        assert decision.cost == pytest.approx(0.2178, abs=1e-3)

    def test_candidate_paths_cover_all_available(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        decision = vra.decide("U1", "movie", holders=["U3", "U4", "U5"])
        assert set(decision.candidate_paths) == {"U3", "U4", "U5"}
        assert all(path.source == "U1" for path in decision.candidate_paths.values())

    def test_download_route_reverses_path(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        decision = vra.decide("U2", "movie", holders=["U5"])
        assert decision.download_route().nodes == tuple(reversed(decision.path.nodes))

    def test_poll_excludes_candidates(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        decision = vra.decide(
            "U2", "movie", holders=["U4", "U5"], poll=lambda uid: uid != "U4"
        )
        assert decision.chosen_uid == "U5"
        assert decision.polled_out == ("U4",)

    def test_weights_recorded_in_decision(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        decision = vra.decide("U2", "movie", holders=["U4"])
        assert set(decision.weights) == {link.name for link in grnet_8am.links()}

    def test_cost_tie_broken_by_uid(self, grnet):
        # Idle network: all weights zero, every path costs 0.
        vra = VirtualRoutingAlgorithm(grnet)
        decision = vra.decide("U2", "movie", holders=["U5", "U4"])
        assert decision.chosen_uid == "U4"

    def test_decision_count_increments(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        vra.decide("U2", "m", holders=["U4"])
        vra.decide("U2", "m", holders=["U2"])
        assert vra.decision_count == 2


class TestErrors:
    def test_no_holders_raises_title_unavailable(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        with pytest.raises(TitleUnavailableError):
            vra.decide("U2", "ghost", holders=[])

    def test_all_candidates_poll_out(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        with pytest.raises(RoutingError):
            vra.decide("U2", "movie", holders=["U4", "U5"], poll=lambda _uid: False)

    def test_home_only_holder_polling_out(self, grnet_8am):
        vra = VirtualRoutingAlgorithm(grnet_8am)
        with pytest.raises(RoutingError):
            vra.decide("U2", "movie", holders=["U2"], poll=lambda _uid: False)


class TestConfiguration:
    def test_custom_used_of_changes_decision(self, grnet):
        # Ground truth idle; a reporter claiming Patra-Ioannina is slammed
        # must push the decision onto the Athens route.
        def reported(link):
            return link.capacity_mbps * (0.95 if link.name == "Patra-Ioannina" else 0.01)

        vra = VirtualRoutingAlgorithm(grnet, used_of=reported)
        decision = vra.decide("U2", "movie", holders=["U4"])
        assert decision.path.nodes == ("U2", "U1", "U4")

    def test_normalization_constant_scales_lu(self, grnet_8am):
        table_k10 = VirtualRoutingAlgorithm(grnet_8am).weights()
        table_k5 = VirtualRoutingAlgorithm(
            grnet_8am, normalization_constant=5.0
        ).weights()
        for name in table_k10:
            assert table_k5[name] >= table_k10[name]

    def test_no_trace_by_default(self, grnet_8am):
        decision = VirtualRoutingAlgorithm(grnet_8am).decide(
            "U2", "movie", holders=["U4"]
        )
        assert decision.dijkstra_result.steps == []


class TestGoalDirectedSearch:
    """The compiled path searches to the nearest holder only; the decision
    and its lazily completed audit trail must not show it."""

    def cached_vra(self, topology, **kwargs):
        return VirtualRoutingAlgorithm(
            topology,
            compiled=True,
            epoch_of=lambda: (topology.traffic_version, topology.state_version),
            **kwargs,
        )

    @pytest.mark.parametrize("compiled", [False, True])
    def test_idle_network_equidistant_holders_pick_smallest_uid(self, grnet, compiled):
        # No traffic: every LVN is 0, every holder ties at cost 0.
        vra = VirtualRoutingAlgorithm(grnet, compiled=compiled)
        decision = vra.decide("U1", "movie", holders=["U6", "U3", "U5"])
        assert decision.cost == 0.0
        assert decision.chosen_uid == "U3"
        assert set(decision.candidate_paths) == {"U3", "U5", "U6"}

    @pytest.mark.parametrize("compiled", [False, True])
    def test_partitioned_holders_still_raise(self, grnet_8am, compiled):
        from repro.errors import NoReachableHolderError

        for link in grnet_8am.links_at("U2"):
            link.online = False
        vra = VirtualRoutingAlgorithm(grnet_8am, compiled=compiled)
        with pytest.raises(NoReachableHolderError, match=r"\['U4', 'U5'\]"):
            vra.decide("U2", "movie", holders=["U4", "U5"])

    def test_decision_is_read_from_a_prefix_and_audited_in_full(self, grnet_8am):
        vra = self.cached_vra(grnet_8am)
        oracle = VirtualRoutingAlgorithm(grnet_8am)
        decision = vra.decide("U2", "movie", holders=["U1", "U5"])
        expected = oracle.decide("U2", "movie", holders=["U1", "U5"])
        # A hit (compute is never called): the prefix the decision read.
        search = vra.cache.tree(vra.cache.token, "U2", None, [decision.chosen_uid])
        assert not search.complete and not search.reaches("U5")
        assert (decision.chosen_uid, decision.path) == (expected.chosen_uid, expected.path)
        # The audit trail is the complete tree and every candidate's path.
        assert decision.dijkstra_result.complete
        assert decision.dijkstra_result.distances == expected.dijkstra_result.distances
        assert decision.candidate_paths == expected.candidate_paths
        assert set(decision.candidate_paths) == {"U1", "U5"}
        assert decision.dijkstra_result is decision.dijkstra_result  # derived once

    def test_second_title_beyond_the_cached_prefix_is_researched(self, grnet_8am):
        vra = self.cached_vra(grnet_8am)
        oracle = VirtualRoutingAlgorithm(grnet_8am)
        near = vra.decide("U2", "near", holders=["U1"])
        assert vra.cache_stats.tree_misses == 1
        far = vra.decide("U2", "far", holders=["U5"])  # U5 outside that prefix
        assert (vra.cache_stats.tree_hits, vra.cache_stats.tree_misses) == (0, 2)
        assert far.path == oracle.decide("U2", "far", holders=["U5"]).path
        # The longer search replaced the short one and serves both titles.
        again = vra.decide("U2", "near", holders=["U1"])
        assert (vra.cache_stats.tree_hits, vra.cache_stats.tree_misses) == (1, 2)
        assert again.path == near.path

    def test_python_and_compiled_audits_are_complete_trees(self, grnet_8am):
        for compiled in (False, True):
            decision = VirtualRoutingAlgorithm(grnet_8am, compiled=compiled).decide(
                "U2", "movie", holders=["U1", "U5"]
            )
            assert decision.dijkstra_result.complete
            assert len(decision.dijkstra_result.distances) == grnet_8am.node_count
