"""Policy-equivalence suite: the default placement path must be
byte-identical to the historical DMA behaviour.

Three angles:

* an explicit ``PlacementConfig(kind="dma")`` equals the default
  ``ServiceConfig`` (the default placement is the paper's DMA);
* every placement kind replays one pinned GRNET run: the session
  fingerprint and event count each kind gave before the X2 cache
  baselines became kinds (they were swapped in after construction then);
* chaos replays are deterministic and placement-config-invariant.
"""

import pytest

from repro.core.service import ServiceConfig
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.experiments.placement import session_fingerprint
from repro.network.grnet import GRNET_NODES
from repro.placement import PLACEMENT_KINDS, PlacementConfig
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


def run_fingerprint(scenario, config: ServiceConfig) -> str:
    experiment = ServiceExperiment(
        name=f"equivalence:{config.placement.kind}", scenario=scenario, config=config
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


#: (session fingerprint, events fired) of the pinned run, per kind.
KIND_PINS = {
    "dma": ("94399be828e66a8b2cedf3962cff48d4c1cff7cd180d4af96655d5252203f0e7", 2108),
    "prefix": ("c20c4f3fdc568f5ea129b4febc4e4e9259e7fd83c47e15c793d738957fe505bd", 2010),
    "partial": ("52c80f876d1bdac0b801fa0c6adf18787c1b1d38f4573db73417c31983127f30", 1821),
    "dma-greedy": ("b636a8588d208c33f70680c0d1fd23e129753758fe6301bf35a08b7f43eff531", 2053),
    "nocache": ("8aa5e6c10c8e6ff7827e5dccba9e0cdccc4036e08997dade8e3080e00ff0565e", 2166),
    "lru": ("235223af0b78621a5efd64aff7eec837599aa83278c88bff15ae55fd0c211324", 2053),
    "fullrep": ("d5105599ebc2adf529e4d2ea3191dc0d4c76f5e5a11242f0f62f4b01221eb3c6", 1876),
}


@pytest.fixture(scope="module")
def pinned_scenario():
    # Alternating 100/250 MB titles on 3 x 200 MB disks: one eviction does
    # not always make room, so the greedy DMA parts from Figure 2's, and
    # all seven kinds leave different session histories.
    titles = [
        VideoTitle(f"title-{i:03d}", size_mb=(100.0, 250.0)[i % 2], duration_s=3600.0)
        for i in range(10)
    ]
    return regional_scenario(
        list(GRNET_NODES), requests_per_node=6, zipf_exponent=1.0, seed=23,
        catalog=titles,
    )


@pytest.mark.parametrize("kind", PLACEMENT_KINDS)
def test_each_kind_replays_its_pinned_run(pinned_scenario, kind):
    config = ServiceConfig(
        cluster_mb=50.0,
        disk_count=3,
        disk_capacity_mb=200.0,
        max_streams=64,
        use_reported_stats=False,
        placement=PlacementConfig(kind=kind),
    )
    result = run_service_experiment(
        ServiceExperiment(name=f"pin:{kind}", scenario=pinned_scenario, config=config)
    )
    fingerprint = session_fingerprint(result.service.sessions)
    assert (fingerprint, result.service.sim.events_fired) == KIND_PINS[kind]


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
