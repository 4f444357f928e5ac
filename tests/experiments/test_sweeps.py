"""Unit tests for the packaged better-source-appears scenario."""

import pytest

from repro.baselines.switching import NeverSwitch
from repro.experiments.sweeps import (
    DEFAULT_SWEEP_CLUSTERS_MB,
    SWITCHING_TITLE,
    better_source_sweep,
    run_better_source_scenario,
)


class TestScenario:
    def test_paper_policy_escapes_to_athens(self):
        record = run_better_source_scenario(cluster_mb=100.0)
        assert record.completed
        assert record.servers_used == ["U4", "U1"]
        assert record.switch_count == 1

    def test_frozen_policy_stays_on_poisoned_route(self):
        record = run_better_source_scenario(cluster_mb=100.0, decide_wrapper=NeverSwitch)
        assert record.completed
        assert record.servers_used == ["U4"]
        assert record.switch_count == 0

    def test_poison_timing_parameter(self):
        # Poison after the whole download: nothing to escape from.
        record = run_better_source_scenario(
            cluster_mb=100.0, poison_at_s=9_000.0
        )
        assert record.switch_count == 0
        duration = record.completed_at - record.request.submitted_at
        assert duration == pytest.approx(SWITCHING_TITLE.duration_s, rel=0.01)

    def test_sweep_covers_default_grid(self):
        results = dict(better_source_sweep())
        assert set(results) == set(DEFAULT_SWEEP_CLUSTERS_MB)
        for record in results.values():
            assert record.completed

    def test_sweep_accepts_custom_grid(self):
        results = dict(better_source_sweep([150.0]))
        assert list(results) == [150.0]
        assert len(results[150.0].clusters) == 10

