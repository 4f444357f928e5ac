"""T4 — Table 4: the Dijkstra step table for Experiment A (8am, client at
Patra, title at Thessaloniki and Xanthi).

The paper's printed Table 4 contains a missed relaxation (DESIGN.md §5
erratum 1): it reports the best U2->U4 path as U2,U1,U4 at 0.365 and
therefore downloads from Xanthi (U5, 0.315).  A correct Dijkstra over the
paper's own weights finds U2,U3,U4 at ~0.218 and downloads from
Thessaloniki.  This bench regenerates the correct table, asserts both the
corrected decision and agreement with the paper on every row the paper got
right, and prints the delta.
"""

import pytest

from repro.experiments.casestudy import run_experiment
from repro.experiments.report import render_experiment


def test_table4_experiment_a(benchmark, show):
    outcome = benchmark(run_experiment, "A")

    steps = outcome.steps
    assert len(steps) == 6

    # Step 1 matches the paper's first row exactly: D3=0.075, D1=0.083,
    # everything else unreached ("R").
    first = steps[0]
    assert first.settled == ("U2",)
    assert first.distances["U3"] == pytest.approx(0.075, abs=1e-3)
    assert first.distances["U1"] == pytest.approx(0.083, abs=1e-3)
    for uid in ("U4", "U5", "U6"):
        assert uid not in first.distances

    # Rows the paper got right: D5 and D6.
    final = steps[-1]
    assert final.distances["U5"] == pytest.approx(0.315, abs=2e-3)
    assert final.paths["U5"] == ("U2", "U1", "U6", "U5")
    assert final.distances["U6"] == pytest.approx(0.195, abs=2e-3)
    assert final.paths["U6"] == ("U2", "U1", "U6")

    # The erratum: the correct D4 entry and the flipped decision.
    assert final.distances["U4"] == pytest.approx(0.2178, abs=1e-3)
    assert final.paths["U4"] == ("U2", "U3", "U4")
    assert outcome.chosen_uid == "U4"
    assert outcome.expectation.printed_chosen == "U5"
    assert outcome.matches_corrected and not outcome.matches_printed

    show(render_experiment(outcome))
    show(
        "Paper printed D4 = 0.365 via U2,U1,U4 (missed relaxation through "
        "U3); correct Dijkstra gives "
        f"D4 = {final.distances['U4']:.4f} via U2,U3,U4, flipping the "
        "decision from Xanthi (U5) to Thessaloniki (U4)."
    )
