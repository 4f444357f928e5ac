"""The placement-policy comparison experiment and its replay gates."""

import pytest

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
        by_kind = {o.kind: o for o in comparison.outcomes}
        assert by_kind["prefix"].prefix_stores > 0
        assert by_kind["dma"].prefix_stores == 0

    def test_gates_pass(self, comparison):
        assert comparison.deterministic is True
        assert comparison.gates_passed


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
            requests_per_node=2, catalog_size=4
        )
        text = render_placement_comparison(unchecked)
        assert "replay determinism" not in text
        assert unchecked.deterministic is None
        assert unchecked.gates_passed  # vacuously


class TestFingerprint:
    def test_fingerprint_is_stable_and_sensitive(self):
        from repro.client.requests import VideoRequest
        from repro.core.session import SessionRecord

        def record(startup: float, failovers: int = 0) -> SessionRecord:
            return SessionRecord(
                request=VideoRequest(
                    client_id="c1",
                    home_uid="U2",
                    title_id="m",
                    submitted_at=0.0,
                ),
                startup_delay_s=startup,
                failover_count=failovers,
            )

        assert session_fingerprint([record(1.0)]) == session_fingerprint(
            [record(1.0)]
        )
        assert session_fingerprint([record(1.0)]) != session_fingerprint(
            [record(2.0)]
        )
        # Two runs that differ only in failover are told apart.
        assert session_fingerprint([record(1.0, failovers=1)]) != session_fingerprint(
            [record(1.0)]
        )
        assert session_fingerprint([record(1.0, failovers=1)]) != session_fingerprint(
            [record(1.0, failovers=2)]
        )

    def test_outcomes_carry_fingerprints(self, comparison):
        prints = {o.fingerprint for o in comparison.outcomes}
        assert all(len(p) == 64 for p in prints)
        # Different policies produce different session histories.
        assert len(prints) == 3


class TestResidentFractionReads:
    def test_read_once_per_miss(self, monkeypatch):
        """A placement miss reads the title's resident fraction once, in
        ``on_request``, and passes it down; ``store_segment`` returns the
        share it just wrote without reading it again (62 misses and 15
        segment stores here)."""
        from repro.placement.base import PlacementPolicy
        from repro.storage.array import DiskArray

        counts = {"reads": 0, "misses": 0, "segments": 0}
        read, store_segment = DiskArray.resident_fraction, DiskArray.store_segment
        on_request = PlacementPolicy.on_request

        def counted_read(array, title_id):
            counts["reads"] += 1
            return read(array, title_id)

        def counted_store_segment(array, *args, **kwargs):
            counts["segments"] += 1
            return store_segment(array, *args, **kwargs)

        def counted_on_request(policy, video):
            counts["misses"] += not policy.array.has_video(video.title_id)
            return on_request(policy, video)

        monkeypatch.setattr(DiskArray, "resident_fraction", counted_read)
        monkeypatch.setattr(DiskArray, "store_segment", counted_store_segment)
        monkeypatch.setattr(PlacementPolicy, "on_request", counted_on_request)
        run_placement_experiment(requests_per_node=6, catalog_size=8)
        assert (counts["misses"], counts["segments"]) == (62, 15)
        assert counts["reads"] == counts["misses"] == 62
