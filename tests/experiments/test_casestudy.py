"""Unit tests for the case-study reproduction (Tables 2-5, Experiments A-D).

These are the golden-value tests: they pin the recomputed numbers both to
hand-checked exact arithmetic and to the paper's printed values (within
the paper's own rounding), and they pin the experiment decisions.
"""

import pytest

from repro.experiments.casestudy import (
    EXPERIMENTS,
    PAPER_EXPERIMENTS,
    compute_table2_utilization_percent,
    compute_table3_lvn,
    run_all_experiments,
    run_experiment,
    table2_deltas,
    table3_deltas,
    topology_at,
)


class TestTable2:
    def test_all_cells_match_paper_within_rounding(self):
        for delta in table2_deltas():
            assert abs(delta.delta) < 0.15, (
                delta.link_name,
                delta.time_label,
                delta.computed,
                delta.printed,
            )

    def test_known_exact_cells(self):
        table = compute_table2_utilization_percent()
        assert table["Patra-Athens"]["8am"] == pytest.approx(10.0)
        assert table["Patra-Athens"]["10am"] == pytest.approx(91.0)
        assert table["Thessaloniki-Xanthi"]["4pm"] == pytest.approx(37.5)
        assert table["Xanthi-Heraklio"]["8am"] == pytest.approx(0.005)

    def test_paper_rounded_cells_flagged_small(self):
        # Thessaloniki-Athens 10am: exact 38.888..., paper prints 38.8.
        table = compute_table2_utilization_percent()
        assert table["Thessaloniki-Athens"]["10am"] == pytest.approx(700.0 / 18.0)


class TestTable3:
    def test_all_cells_within_paper_rounding(self):
        for delta in table3_deltas():
            assert abs(delta.delta) < 0.012, (
                delta.link_name,
                delta.time_label,
                delta.computed,
                delta.printed,
            )

    def test_hand_computed_8am_column(self):
        table = compute_table3_lvn()
        # Exact arithmetic over Table 2 (verified by hand; DESIGN.md §5).
        assert table["Patra-Athens"]["8am"] == pytest.approx(0.083158, abs=1e-5)
        assert table["Patra-Ioannina"]["8am"] == pytest.approx(0.075035, abs=1e-5)
        assert table["Thessaloniki-Athens"]["8am"] == pytest.approx(0.282727, abs=1e-5)
        assert table["Thessaloniki-Xanthi"]["8am"] == pytest.approx(0.168025, abs=1e-5)
        assert table["Thessaloniki-Ioannina"]["8am"] == pytest.approx(0.142727, abs=1e-5)
        assert table["Athens-Heraklio"]["8am"] == pytest.approx(0.113158, abs=1e-5)
        assert table["Xanthi-Heraklio"]["8am"] == pytest.approx(0.120035, abs=1e-5)

    def test_known_inconsistently_rounded_cell(self):
        # DESIGN.md erratum 2: paper prints 0.450017 where exact arithmetic
        # gives 0.455017.
        table = compute_table3_lvn()
        assert table["Patra-Ioannina"]["10am"] == pytest.approx(0.455059, abs=1e-4)

    def test_normalization_constant_propagates(self):
        default = compute_table3_lvn()
        scaled = compute_table3_lvn(normalization_constant=5.0)
        assert scaled["Patra-Athens"]["8am"] > default["Patra-Athens"]["8am"]


class TestExperimentA:
    def test_corrected_decision_is_thessaloniki(self):
        outcome = run_experiment("A")
        assert outcome.chosen_uid == "U4"
        assert outcome.matches_corrected
        assert not outcome.matches_printed  # the documented erratum

    def test_corrected_path_goes_through_ioannina(self):
        outcome = run_experiment("A")
        assert outcome.candidate_paths["U4"] == ("U2", "U3", "U4")
        assert outcome.candidate_costs["U4"] == pytest.approx(0.2178, abs=1e-3)

    def test_xanthi_path_matches_paper(self):
        # The U5 row of Table 4 is correct in the paper.
        outcome = run_experiment("A")
        assert outcome.candidate_paths["U5"] == ("U2", "U1", "U6", "U5")
        assert outcome.candidate_costs["U5"] == pytest.approx(0.315, abs=2e-3)


class TestExperimentB:
    def test_decision_matches_paper(self):
        outcome = run_experiment("B")
        assert outcome.chosen_uid == "U4"
        assert outcome.matches_printed and outcome.matches_corrected

    def test_paths_match_table5(self):
        outcome = run_experiment("B")
        assert outcome.candidate_paths["U4"] == ("U2", "U3", "U4")
        assert outcome.candidate_paths["U5"] == ("U2", "U1", "U6", "U5")
        assert outcome.candidate_costs["U4"] == pytest.approx(1.007, abs=6e-3)
        assert outcome.candidate_costs["U5"] == pytest.approx(1.308, abs=8e-3)


class TestExperimentsCD:
    @pytest.mark.parametrize("exp_id", ["C", "D"])
    def test_decision_is_ioannina(self, exp_id):
        outcome = run_experiment(exp_id)
        assert outcome.chosen_uid == "U3"
        assert outcome.matches_printed

    def test_c_costs_match_paper(self):
        outcome = run_experiment("C")
        assert outcome.candidate_paths["U3"] == ("U1", "U2", "U3")
        assert outcome.candidate_costs["U3"] == pytest.approx(1.222, abs=3e-3)
        assert outcome.candidate_costs["U4"] == pytest.approx(1.5433, abs=3e-3)
        assert outcome.candidate_costs["U5"] == pytest.approx(1.274, abs=3e-3)

    def test_d_costs_match_paper(self):
        outcome = run_experiment("D")
        assert outcome.candidate_costs["U3"] == pytest.approx(1.236, abs=3e-3)
        assert outcome.candidate_costs["U4"] == pytest.approx(1.4824, abs=3e-3)
        assert outcome.candidate_costs["U5"] == pytest.approx(1.3574, abs=3e-3)


class TestHarnessPlumbing:
    def test_run_all_returns_four(self):
        outcomes = run_all_experiments()
        assert sorted(outcomes) == ["A", "B", "C", "D"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("Z")

    def test_trace_recorded_by_default(self):
        outcome = run_experiment("B")
        steps = outcome.steps
        assert len(steps) == 6
        assert steps[0].settled == ("U2",)

    def test_trace_mode_records_steps(self):
        """The step table is a search of its own over the decision's
        weights: one step per node, ending on the decision's tree."""
        outcome = run_experiment("A")
        tree = outcome.decision.dijkstra_result
        assert len(outcome.steps) == len(tree.distances)
        final = outcome.steps[-1]
        for uid, dist in tree.distances.items():
            if uid != outcome.spec.home_uid:
                assert final.distances[uid] == pytest.approx(dist)
                assert final.paths[uid] == tree.path(uid).nodes

    def test_trace_disabled(self):
        outcome = run_experiment("B", trace=False)
        assert outcome.steps == []

    def test_topology_at_loads_sample(self):
        topology = topology_at("4pm")
        assert topology.link_named("Patra-Athens").used_mbps == pytest.approx(1.82)

    def test_expectations_exist_for_every_experiment(self):
        assert set(PAPER_EXPERIMENTS) == set(EXPERIMENTS)


class TestDijkstraTraceAgainstTable5:
    """Row-level checks of the Experiment B trace against the paper."""

    def test_step1_tentative_distances(self):
        steps = run_experiment("B").steps
        first = steps[0]
        assert first.distances["U3"] == pytest.approx(0.455, abs=6e-3)
        assert first.distances["U1"] == pytest.approx(0.632, abs=6e-3)
        assert "U4" not in first.distances  # "R" in the paper
        assert "U5" not in first.distances
        assert "U6" not in first.distances

    def test_settlement_order_matches_table5(self):
        steps = run_experiment("B").steps
        assert steps[-1].settled == ("U2", "U3", "U1", "U4", "U6", "U5")

    def test_final_paths_match_table5(self):
        final = run_experiment("B").steps[-1]
        assert final.paths["U4"] == ("U2", "U3", "U4")
        assert final.paths["U5"] == ("U2", "U1", "U6", "U5")
        assert final.paths["U6"] == ("U2", "U1", "U6")


class TestFullTreeConsumer:
    @pytest.mark.parametrize("exp_id", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("trace", [True, False])
    def test_outcome_audits_every_candidate_over_the_complete_tree(self, exp_id, trace):
        """Tables 4-5 print every candidate's path and the whole step
        table — never the goal-directed prefix that stops at the winner."""
        outcome = run_experiment(exp_id, trace=trace)
        spec = outcome.spec
        candidates = set(spec.holder_uids) - {spec.home_uid}
        assert set(outcome.candidate_paths) == candidates
        assert set(outcome.candidate_costs) == candidates
        tree = outcome.decision.dijkstra_result
        assert tree.complete and len(tree.distances) == 6
        assert tree.steps == []
        assert len(outcome.steps) == (6 if trace else 0)
