"""Service-level resilience: availability under a seeded fault storm."""

from repro.core.service import ServiceConfig
from repro.experiments.resilience import run_resilience_experiment


class TestAvailabilityUnderStorm:
    #: The CI chaos-smoke storm: aggressive enough that the legacy
    #: retry-less service loses sessions, short enough for a test.
    STORM = dict(
        seed=11,
        duration_s=2 * 3600.0,
        requests_per_node=12,
        server_crash_rate_per_h=6.0,
        link_flap_rate_per_h=4.0,
        mean_fault_duration_s=600.0,
    )

    def test_failover_strictly_improves_availability(self):
        off = run_resilience_experiment(
            config=ServiceConfig(retry_attempts=0), **self.STORM
        )
        on = run_resilience_experiment(
            config=ServiceConfig(retry_attempts=0, session_failover=True), **self.STORM
        )
        assert off.report.failed_count > 0  # the storm actually bites
        assert on.report.availability > off.report.availability
        assert on.report.failed_count < off.report.failed_count
        assert on.report.failover_count > 0
        assert on.report.preemptions > 0

    def test_report_carries_the_staleness_section(self):
        run = run_resilience_experiment(
            config=ServiceConfig(
                retry_attempts=0,
                session_failover=True,
                max_stats_age_s=300.0,
            ),
            **self.STORM,
        )
        report = run.report.as_dict()
        assert report["stale_transitions"] >= 0
        assert report["availability"] >= 0.0
