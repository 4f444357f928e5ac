"""T5 — Table 5: the Dijkstra step table for Experiment B (10am, client at
Patra, title at Thessaloniki and Xanthi).

Experiment B's printed table is consistent with a correct Dijkstra, so
this bench asserts row-level agreement: step-1 tentative distances, the
settlement order, the final distances/paths for every destination, and
the download decision (Thessaloniki via U2,U3,U4 at ~1.007).
"""

import pytest

from repro.experiments.casestudy import run_experiment
from repro.experiments.report import render_experiment


def test_table5_experiment_b(benchmark, show):
    outcome = benchmark(run_experiment, "B")
    steps = outcome.steps

    # Step 1: D3=0.45 via U2,U3 and D1=0.632 via U2,U1; others "R".
    first = steps[0]
    assert first.settled == ("U2",)
    assert first.distances["U3"] == pytest.approx(0.455, abs=6e-3)
    assert first.distances["U1"] == pytest.approx(0.632, abs=6e-3)
    assert first.paths["U3"] == ("U2", "U3")
    assert first.paths["U1"] == ("U2", "U1")
    for uid in ("U4", "U5", "U6"):
        assert uid not in first.distances

    # Settlement order matches the paper's "Nodes" column:
    # {U2} {U2,U3} {U2,U3,U1} {U2,U3,U1,U4} {...,U6} {...,U5}.
    assert steps[-1].settled == ("U2", "U3", "U1", "U4", "U6", "U5")

    # Final rows match Table 5.
    final = steps[-1]
    assert final.distances["U4"] == pytest.approx(1.007, abs=6e-3)
    assert final.paths["U4"] == ("U2", "U3", "U4")
    assert final.distances["U5"] == pytest.approx(1.308, abs=8e-3)
    assert final.paths["U5"] == ("U2", "U1", "U6", "U5")
    assert final.distances["U6"] == pytest.approx(1.178, abs=8e-3)
    assert final.paths["U6"] == ("U2", "U1", "U6")

    # Decision: download from Thessaloniki over U2,U3,U4.
    assert outcome.chosen_uid == "U4"
    assert outcome.matches_printed and outcome.matches_corrected

    show(render_experiment(outcome))
    show(
        "Every Table 5 row reproduces within the paper's rounding; the "
        "decision (Thessaloniki via U2,U3,U4) matches exactly."
    )
