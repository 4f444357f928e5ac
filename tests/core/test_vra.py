"""Unit tests for the Virtual Routing Algorithm (paper Figure 5)."""

import pytest

from repro.core.vra import VirtualRoutingAlgorithm, VraDecision
from repro.errors import RoutingError, TitleUnavailableError
from repro.network.routing.paths import Path
from tests.memoized_vra import memoized_vra
from tests.reference.vra import ReferenceVra


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
    """The search goes to the nearest holder only; the decision and its
    lazily completed audit trail must not show it."""

    def cached_vra(self, topology, **kwargs):
        return memoized_vra(topology, **kwargs)

    def vra(self, topology, memo):
        return self.cached_vra(topology) if memo else VirtualRoutingAlgorithm(topology)

    @pytest.mark.parametrize("memo", [False, True])
    def test_idle_network_equidistant_holders_pick_smallest_uid(self, grnet, memo):
        # No traffic: every LVN is 0, every holder ties at cost 0.
        vra = self.vra(grnet, memo)
        decision = vra.decide("U1", "movie", holders=["U6", "U3", "U5"])
        assert decision.cost == 0.0
        assert decision.chosen_uid == "U3"
        assert set(decision.candidate_paths) == {"U3", "U5", "U6"}

    @pytest.mark.parametrize("memo", [False, True])
    def test_partitioned_holders_still_raise(self, grnet_8am, memo):
        from repro.errors import NoReachableHolderError

        for link in grnet_8am.links_at("U2"):
            link.online = False
        vra = self.vra(grnet_8am, memo)
        with pytest.raises(NoReachableHolderError, match=r"\['U4', 'U5'\]"):
            vra.decide("U2", "movie", holders=["U4", "U5"])

    def test_decision_is_read_from_a_prefix_and_audited_in_full(self, grnet_8am):
        vra = self.cached_vra(grnet_8am)
        oracle = ReferenceVra(grnet_8am)
        decision = vra.decide("U2", "movie", holders=["U1", "U5"])
        expected = oracle.decide("U2", "movie", holders=["U1", "U5"])
        # A hit (compute is never called): the prefix the decision read.
        search = vra.cache.tree("U2", decision.weights, [decision.chosen_uid])
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
        oracle = ReferenceVra(grnet_8am)
        near = vra.decide("U2", "near", holders=["U1"])
        assert vra.cache_stats.tree_misses == 1
        far = vra.decide("U2", "far", holders=["U5"])  # U5 outside that prefix
        assert (vra.cache_stats.tree_hits, vra.cache_stats.tree_misses) == (0, 2)
        assert far.path == oracle.decide("U2", "far", holders=["U5"]).path
        # The longer search replaced the short one and serves both titles.
        again = vra.decide("U2", "near", holders=["U1"])
        assert (vra.cache_stats.tree_hits, vra.cache_stats.tree_misses) == (1, 2)
        assert again.path == near.path

    def test_audits_are_complete_trees_with_and_without_memo(self, grnet_8am):
        for memo in (False, True):
            decision = self.vra(grnet_8am, memo).decide(
                "U2", "movie", holders=["U1", "U5"]
            )
            assert decision.dijkstra_result.complete
            assert len(decision.dijkstra_result.distances) == grnet_8am.node_count


class TestDecisionRecord:
    """A decision is one immutable, unhashable record whose equality
    ignores its audit and whose audit is derived from its own fields."""

    def routed(self, topology):
        vra = VirtualRoutingAlgorithm(topology)
        return vra.decide("U2", "movie", holders=["U1", "U5"])

    def test_assigning_a_field_raises(self, grnet_8am):
        decision = self.routed(grnet_8am)
        chosen = decision.chosen_uid
        with pytest.raises(AttributeError):
            decision.chosen_uid = "U9"
        with pytest.raises(AttributeError):
            decision.degraded = True
        assert decision.chosen_uid == chosen and decision.degraded is False

    def test_hash_raises_type_error(self, grnet_8am):
        decision = self.routed(grnet_8am)
        with pytest.raises(TypeError):
            hash(decision)
        with pytest.raises(TypeError):
            {decision}

    def test_equality_ignores_the_audit(self, grnet_8am):
        decision = self.routed(grnet_8am)
        other = decision._replace(audit_of=None)
        assert other == decision and not other != decision
        assert other.candidate_paths == {} and decision.candidate_paths != {}
        assert decision != decision._replace(candidate_count=0)
        assert decision != tuple(decision)

    def test_degraded_copy_derives_its_audit_from_its_own_weights(self):
        seen = []

        def derive(record, tag):
            seen.append((tag, record.weights, record.degraded))
            return {"U9": record.path}, None

        path = Path(nodes=("U1", "U9"), cost=0.5)
        weights = {"U1-U9": 0.5}
        decision = VraDecision(
            "t", "U1", "U9", False, path, weights, (), 1, False, (derive, "in")
        )
        assert decision.candidate_paths == {"U9": path}
        assert decision.dijkstra_result is None
        assert seen == [("in", weights, False)]  # derived once, on first read
        stamped = decision.marked_degraded()
        assert stamped.degraded and not decision.degraded
        assert stamped == decision._replace(degraded=True)
        assert stamped.candidate_paths == {"U9": path}
        assert seen == [("in", weights, False), ("in", weights, True)]
        assert seen[1][1] is stamped.weights

    def test_positional_and_keyword_construction_agree(self, grnet_8am):
        decision = self.routed(grnet_8am)
        rebuilt = VraDecision(
            title_id=decision.title_id,
            home_uid=decision.home_uid,
            chosen_uid=decision.chosen_uid,
            served_locally=decision.served_locally,
            path=decision.path,
            weights=decision.weights,
            polled_out=decision.polled_out,
            candidate_count=decision.candidate_count,
            degraded=decision.degraded,
            audit_of=decision.audit_of,
        )
        assert rebuilt == decision and rebuilt == VraDecision(*decision)
        local = VraDecision("t", "U1", "U1", True, Path(nodes=("U1",), cost=0.0))
        assert local == VraDecision(
            title_id="t", home_uid="U1", chosen_uid="U1", served_locally=True,
            path=Path(nodes=("U1",), cost=0.0),
        )
        assert (local.weights, local.polled_out, local.candidate_count) == ({}, (), 0)

    def test_repr_leaves_the_audit_out(self, grnet_8am):
        decision = self.routed(grnet_8am)
        text = repr(decision)
        assert text.startswith("VraDecision(title_id='movie', home_uid='U2', ")
        assert text.endswith(", degraded=False)")
        assert "audit_of" not in text and "DijkstraResult" not in text
        assert repr(decision._replace(audit_of=None)) == text
