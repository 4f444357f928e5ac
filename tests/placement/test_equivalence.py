"""Policy-equivalence suite: the default placement path must be
byte-identical to the historical DMA behaviour.

Two angles:

* an explicit ``PlacementConfig(kind="dma")`` equals the default
  ``ServiceConfig`` (the default placement is the paper's DMA);
* chaos replays are deterministic and placement-config-invariant.
"""

import pytest

from repro.core.service import ServiceConfig
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.experiments.placement import session_fingerprint
from repro.network.grnet import GRNET_NODES
from repro.placement import PlacementConfig
from repro.storage.video import VideoTitle
from repro.workload.scenarios import flash_crowd_scenario, regional_scenario


def catalog(count: int = 8, size_mb: float = 300.0):
    return [
        VideoTitle(f"title-{i:02d}", size_mb=size_mb, duration_s=3600.0)
        for i in range(count)
    ]


def small_config(**kwargs) -> ServiceConfig:
    return ServiceConfig(
        cluster_mb=50.0,
        disk_count=2,
        disk_capacity_mb=400.0,
        max_streams=64,
        use_reported_stats=False,
        **kwargs,
    )


def run_fingerprint(scenario, config: ServiceConfig, cache: str = "dma") -> str:
    experiment = ServiceExperiment(
        name=f"equivalence:{cache}",
        scenario=scenario,
        config=config,
        cache=cache,
    )
    result = run_service_experiment(experiment)
    assert result.metrics.session_count > 0
    return session_fingerprint(result.service.sessions)


@pytest.fixture
def flash_crowd():
    titles = catalog()
    return flash_crowd_scenario(
        next(iter(GRNET_NODES)), titles[0], viewer_count=30, seed=7
    )


@pytest.fixture
def regional():
    return regional_scenario(
        list(GRNET_NODES), requests_per_node=8, seed=23, catalog=catalog()
    )


class TestConfigEquivalence:
    def test_explicit_dma_placement_is_the_default(self, regional):
        implicit = run_fingerprint(regional, small_config())
        explicit = run_fingerprint(
            regional, small_config(placement=PlacementConfig(kind="dma"))
        )
        assert implicit == explicit

    def test_runs_are_deterministic(self, flash_crowd):
        assert run_fingerprint(flash_crowd, small_config()) == run_fingerprint(
            flash_crowd, small_config()
        )


class TestChaosReplayEquivalence:
    def test_chaos_replay_placement_invariant(self):
        from repro.experiments.resilience import run_resilience_experiment

        def chaos_fingerprint(config):
            run = run_resilience_experiment(
                seed=11,
                duration_s=3600.0,
                requests_per_node=6,
                config=config,
            )
            return session_fingerprint(run.service.sessions)

        base = ServiceConfig(retry_attempts=5)
        explicit = ServiceConfig(
            retry_attempts=5,
            placement=PlacementConfig(kind="dma"),
        )
        first = chaos_fingerprint(base)
        assert first == chaos_fingerprint(base)  # deterministic replay
        assert first == chaos_fingerprint(explicit)
