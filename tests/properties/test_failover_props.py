"""Property tests: failover supervisor invariants under seeded storms.

The headline invariant of the supervisor is *no session fails while an
online full holder of its title existed at the failure instant*.  The
implementation fails a session only when no full copy remains registered
anywhere — strictly rarer than "no online holder" — and seeded titles
are pinned, so under any storm that only crashes servers and flaps links
the fail verdict must never fire at all.  The remaining properties pin
replay determinism and the knobs-off equivalence contract.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.service import ServiceConfig
from repro.experiments.resilience import run_resilience_experiment

seeds = st.integers(min_value=0, max_value=2**31)
crash_rates = st.floats(min_value=1.0, max_value=8.0, allow_nan=False)
flap_rates = st.floats(min_value=0.0, max_value=6.0, allow_nan=False)


def run_storm(seed, crash_rate, flap_rate, **knobs):
    return run_resilience_experiment(
        seed=seed,
        duration_s=1_800.0,
        requests_per_node=4,
        server_crash_rate_per_h=crash_rate,
        link_flap_rate_per_h=flap_rate,
        mean_fault_duration_s=300.0,
        config=ServiceConfig(retry_attempts=0, **knobs),
    )


def session_fingerprint(service):
    """A byte-comparable projection of every session's delivery record."""
    return [
        (
            record.request.status.name,
            record.startup_delay_s,
            record.stall_s,
            record.switch_count,
            record.retry_count,
            record.retry_wait_s,
            record.failover_count,
            record.failover_stall_s,
            record.completed_at,
            tuple(
                (c.server_uid, c.path_nodes, c.rate_mbps, c.start, c.end, c.size_mb)
                for c in record.clusters
            ),
        )
        for record in service.sessions
    ]


@given(seeds, crash_rates, flap_rates)
@settings(max_examples=8, deadline=None)
def test_no_session_fails_while_an_online_holder_existed(seed, crash, flap):
    run = run_storm(seed, crash, flap, session_failover=True)
    supervisor = run.service.supervisor
    # Pinned seeds keep a full copy registered throughout, so the
    # supervisor's fail verdict (which requires the last registered copy
    # to be gone — a superset of "no online holder") may never fire.
    assert supervisor.failed_log == []
    assert supervisor.failed_count == 0
    # And every session failure must be a supervisor verdict: with the
    # supervisor on, no other path may fail a session under this storm.
    assert run.report.failed_count == supervisor.failed_count


@given(seeds)
@settings(max_examples=5, deadline=None)
def test_seeded_replay_is_byte_identical_with_all_knobs_on(seed):
    kwargs = dict(
        session_failover=True,
        max_stats_age_s=300.0,
    )
    a = run_storm(seed, 4.0, 3.0, **kwargs)
    b = run_storm(seed, 4.0, 3.0, **kwargs)
    assert a.report.as_dict() == b.report.as_dict()
    assert a.injector.log == b.injector.log
    assert a.service.supervisor.stall_log == b.service.supervisor.stall_log
    assert a.service.supervisor.failed_log == b.service.supervisor.failed_log
    assert session_fingerprint(a.service) == session_fingerprint(b.service)


@given(seeds)
@settings(max_examples=5, deadline=None)
def test_knobs_off_runs_match_explicit_default_knobs(seed):
    # The new knobs at their defaults must be indistinguishable from not
    # mentioning them at all — the byte-identity contract for legacy runs.
    a = run_storm(seed, 4.0, 3.0)
    b = run_storm(
        seed,
        4.0,
        3.0,
        session_failover=False,
        max_stats_age_s=None,
    )
    assert a.report.as_dict() == b.report.as_dict()
    assert a.injector.log == b.injector.log
    assert session_fingerprint(a.service) == session_fingerprint(b.service)
    assert a.service.supervisor is None and b.service.supervisor is None
