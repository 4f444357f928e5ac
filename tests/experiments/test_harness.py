"""Unit tests for the service-level experiment runner."""

import pytest

from repro.core.service import ServiceConfig
from repro.errors import ReproError, ServiceError
from repro.experiments.harness import (
    ServiceExperiment,
    build_service,
    run_service_experiment,
)
from repro.placement import PlacementConfig
from repro.workload.scenarios import regional_scenario

GRNET_NODES = ["U1", "U2", "U3", "U4", "U5", "U6"]


def small_scenario(**overrides):
    defaults = dict(
        home_uids=GRNET_NODES,
        catalog_size=6,
        requests_per_node=3,
        horizon_s=1800.0,
        seed=11,
    )
    defaults.update(overrides)
    return regional_scenario(**defaults)


def small_config(**overrides):
    # Disks sized so one server can hold the whole 6-title catalog: the
    # DMA must never evict a title's last network-wide copy in these tests
    # (that hazard gets its own integration test).
    defaults = dict(
        cluster_mb=100.0,
        disk_count=4,
        disk_capacity_mb=5_000.0,
        snmp_period_s=120.0,
        use_reported_stats=False,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestBuildService:
    def test_titles_seeded_round_robin(self):
        experiment = ServiceExperiment(
            name="t", scenario=small_scenario(), config=small_config()
        )
        service = build_service(experiment)
        for index, title in enumerate(experiment.scenario.catalog):
            origin = GRNET_NODES[index % len(GRNET_NODES)]
            assert origin in service.database.servers_with_title(title.title_id)

    def test_custom_origins(self):
        experiment = ServiceExperiment(
            name="t",
            scenario=small_scenario(),
            config=small_config(),
            seed_origin_uids=["U1"],
        )
        service = build_service(experiment)
        for title in experiment.scenario.catalog:
            assert service.database.servers_with_title(title.title_id) == ["U1"]

    def test_selection_policies_applied(self):
        from repro.baselines.selection import MinHopSelection, RandomSelection

        for key, kind in [("minhop", MinHopSelection), ("random", RandomSelection)]:
            experiment = ServiceExperiment(
                name="t", scenario=small_scenario(), config=small_config(), selection=key
            )
            assert isinstance(build_service(experiment).vra, kind)

    def test_origin_selection_policy(self):
        from repro.baselines.selection import HomeOnlySelection

        experiment = ServiceExperiment(
            name="t",
            scenario=small_scenario(),
            config=small_config(),
            selection="origin:U1",
            seed_origin_uids=["U1"],
        )
        service = build_service(experiment)
        assert isinstance(service.vra, HomeOnlySelection)
        assert service.vra.origin_uid == "U1"

    def test_cache_policies_applied(self):
        from repro.baselines.caching import NoCachePolicy

        experiment = ServiceExperiment(
            name="t",
            scenario=small_scenario(),
            config=small_config(placement=PlacementConfig(kind="nocache")),
        )
        service = build_service(experiment)
        assert all(
            isinstance(server.policy, NoCachePolicy)
            for server in service.servers.values()
        )

    def test_greedy_dma_variant(self):
        experiment = ServiceExperiment(
            name="t",
            scenario=small_scenario(),
            config=small_config(placement=PlacementConfig(kind="dma-greedy")),
        )
        service = build_service(experiment)
        assert all(
            server.policy.evict_until_fits for server in service.servers.values()
        )

    def test_switching_policies_applied(self):
        experiment = ServiceExperiment(
            name="t", scenario=small_scenario(), config=small_config(), switching="never"
        )
        assert build_service(experiment).decide_wrapper is not None

    def test_unknown_policies_rejected(self):
        for kwargs in ({"selection": "bogus"}, {"switching": "bogus"}):
            experiment = ServiceExperiment(
                name="t", scenario=small_scenario(), config=small_config(), **kwargs
            )
            with pytest.raises(ReproError):
                build_service(experiment)
        with pytest.raises(ReproError):
            small_config(placement=PlacementConfig(kind="bogus"))


class TestRunExperiment:
    def test_end_to_end_run_completes_sessions(self):
        experiment = ServiceExperiment(
            name="t", scenario=small_scenario(), config=small_config()
        )
        result = run_service_experiment(experiment)
        assert result.metrics.session_count == len(experiment.scenario.events)
        assert result.metrics.completed_count > 0
        assert result.metrics.failed_count == 0

    @pytest.mark.parametrize(
        "selection", ["vra", "minhop", "random", "static", "origin:U1"]
    )
    def test_every_selection_policy_runs_its_sessions_to_the_end(self, selection):
        experiment = ServiceExperiment(
            name="t",
            scenario=small_scenario(),
            config=small_config(),
            selection=selection,
            seed_origin_uids=["U1"] if selection == "origin:U1" else None,
            run_until=24 * 3600.0,  # long enough for the slowest stream
        )
        result = run_service_experiment(experiment)
        assert result.metrics.completed_count > 0
        assert all(record.request.finished for record in result.service.sessions)
        # The memo's flushes follow the built-in VRA's inputs only.
        memo = getattr(result.service.vra, "decision_cache_stats", None)
        assert (memo is not None) == (selection == "vra")

    def test_a_session_process_dying_on_an_unhandled_exception_raises(self):
        def broken(decide):
            def raising(cluster):
                raise RuntimeError("boom")

            return raising

        experiment = ServiceExperiment(
            name="t",
            scenario=small_scenario(),
            config=small_config(),
            service_hook=lambda service: setattr(service, "decide_wrapper", broken),
        )
        with pytest.raises(ServiceError, match="boom") as raised:
            run_service_experiment(experiment)
        assert isinstance(raised.value.__cause__, RuntimeError)

    def test_table2_replay_loads_background(self):
        experiment = ServiceExperiment(
            name="t",
            scenario=small_scenario(),
            config=small_config(),
            replay_table2=True,
            start_time=8 * 3600.0,
        )
        result = run_service_experiment(experiment)
        link = result.service.topology.link_named("Thessaloniki-Athens")
        assert link.background_mbps > 0.0

    def test_deterministic_given_seeds(self):
        def run():
            experiment = ServiceExperiment(
                name="t", scenario=small_scenario(), config=small_config()
            )
            return run_service_experiment(experiment).metrics

        first, second = run(), run()
        assert first == second

    def test_run_until_override(self):
        experiment = ServiceExperiment(
            name="t",
            scenario=small_scenario(),
            config=small_config(),
            run_until=1.0,
        )
        result = run_service_experiment(experiment)
        assert result.metrics.completed_count == 0
