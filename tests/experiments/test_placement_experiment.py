"""The placement-policy comparison experiment and its replay gates."""

import pytest

from repro.errors import ReproError
from repro.experiments.placement import (
    PlacementComparison,
    render_placement_comparison,
    run_placement_experiment,
    session_fingerprint,
)


@pytest.fixture(scope="module")
def comparison() -> PlacementComparison:
    # Small but real: all three policies plus the replay gate.
    return run_placement_experiment(
        requests_per_node=4, catalog_size=6, check=True
    )


class TestComparison:
    def test_covers_all_three_policies(self, comparison):
        assert [o.kind for o in comparison.outcomes] == ["dma", "prefix", "partial"]

    def test_every_policy_served_sessions(self, comparison):
        for outcome in comparison.outcomes:
            assert outcome.passes > 0
            assert outcome.metrics.session_count > 0
            assert 0.0 <= outcome.hit_rate <= outcome.any_hit_rate <= 1.0

    def test_fractional_policies_cut_segments(self, comparison):
        assert comparison.outcome_for("prefix").prefix_stores > 0
        assert comparison.outcome_for("dma").prefix_stores == 0

    def test_gates_pass(self, comparison):
        assert comparison.deterministic is True
        assert comparison.gates_passed

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            run_placement_experiment(kinds=("mru",))

    def test_check_requires_dma(self):
        with pytest.raises(ReproError):
            run_placement_experiment(kinds=("prefix",), check=True)

    def test_outcome_for_unknown_kind_raises(self, comparison):
        with pytest.raises(ReproError):
            comparison.outcome_for("lru")


class TestRendering:
    def test_table_lists_policies_and_gates(self, comparison):
        text = render_placement_comparison(comparison)
        for needle in (
            "Placement-policy comparison",
            "dma",
            "prefix",
            "partial",
            "Hit rate",
            "replay determinism (dma rerun): PASS",
        ):
            assert needle in text

    def test_gate_lines_absent_without_check(self):
        unchecked = run_placement_experiment(
            requests_per_node=2, catalog_size=4, kinds=("dma",)
        )
        text = render_placement_comparison(unchecked)
        assert "replay determinism" not in text
        assert unchecked.deterministic is None
        assert unchecked.gates_passed  # vacuously


class TestFingerprint:
    def test_fingerprint_is_stable_and_sensitive(self):
        from repro.client.requests import VideoRequest
        from repro.core.session import SessionRecord

        def record(startup: float) -> SessionRecord:
            return SessionRecord(
                request=VideoRequest(
                    client_id="c1",
                    home_uid="U2",
                    title_id="m",
                    submitted_at=0.0,
                ),
                startup_delay_s=startup,
            )

        assert session_fingerprint([record(1.0)]) == session_fingerprint(
            [record(1.0)]
        )
        assert session_fingerprint([record(1.0)]) != session_fingerprint(
            [record(2.0)]
        )

    def test_outcomes_carry_fingerprints(self, comparison):
        prints = {o.fingerprint for o in comparison.outcomes}
        assert all(len(p) == 64 for p in prints)
        # Different policies produce different session histories.
        assert len(prints) == 3
