"""Failover supervisor overhead: the fault-free path must stay cheap.

With ``session_failover`` on but no faults injected, the supervisor adds
exactly two things to the hot path: track/untrack bookkeeping around
every transfer segment, and the try/except wrapper on the boundary
decide.  Raw A/B wall-clock deltas of
two full runs drown in scheduler noise at this scale (the same rationale
as the observability-overhead benchmark), so the bound is computed from
measured parts: count the segments an enabled run delivers, microbench
the real per-segment track/untrack cost against a live supervisor, and
compare the product with the measured supervisor-off wall time.
"""

from time import perf_counter

from repro.core.service import ServiceConfig, VoDService
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle
from repro.workload.scenarios import flash_crowd_scenario

#: Same half-hour special as the X10 flash-crowd benchmark.
SPECIAL = VideoTitle("special", size_mb=300.0, duration_s=1_800.0)

#: Acceptance bound: supervisor bookkeeping below 2% of the run's time.
MAX_OVERHEAD_FRACTION = 0.02


def run_crowd(session_failover: bool):
    scenario = flash_crowd_scenario(
        "U2", SPECIAL, viewer_count=40, start_s=600.0, ramp_s=7_200.0
    )
    experiment = ServiceExperiment(
        name=f"failover-{'on' if session_failover else 'off'}",
        scenario=scenario,
        config=ServiceConfig(
            cluster_mb=100.0,
            disk_count=2,
            disk_capacity_mb=1_000.0,
            max_streams=256,
            use_reported_stats=False,
            session_failover=session_failover,
        ),
        seed_origin_uids=["U4"],
        run_until=12 * 3600.0,
    )
    started = perf_counter()
    result = run_service_experiment(experiment)
    return result, perf_counter() - started


def per_segment_cost(ops: int = 20_000) -> float:
    """Measured seconds per track/untrack pair on a live supervisor."""
    sim = Simulator()
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    service = VoDService(
        sim,
        topology,
        ServiceConfig(use_reported_stats=False, session_failover=True),
    )
    service.seed_title("U4", SPECIAL)
    service.start()
    decision = service.decide("U2", "special")
    supervisor = service.supervisor

    class Segment:
        """What the supervisor reads of a transfer: its index keys."""

        server_uid = decision.chosen_uid
        links = service.flows.links_of(decision.path.nodes)

    probe = Segment()
    started = perf_counter()
    for _ in range(ops):
        supervisor.track(probe)
        supervisor.untrack(probe)
    return (perf_counter() - started) / ops


def test_fault_free_run_is_untouched_by_the_supervisor(benchmark, show):
    (result, elapsed) = benchmark.pedantic(
        lambda: run_crowd(session_failover=True), rounds=1, iterations=1
    )
    service = result.service
    assert service.supervisor is not None
    assert service.supervisor.preemption_count == 0
    assert service.supervisor.failover_count == 0
    assert service.supervisor.tracked_count == 0
    assert result.metrics.completed_count == result.metrics.session_count
    show(
        f"FAILOVER-ON: crowd of 40 in {elapsed:.2f}s wall, "
        f"0 preemptions / 0 failovers on the fault-free path"
    )


def test_supervisor_overhead_below_two_percent(benchmark, show):
    def measure():
        enabled_result, _ = run_crowd(session_failover=True)
        _, disabled_wall = run_crowd(session_failover=False)
        segments = sum(
            len(record.clusters) for record in enabled_result.service.sessions
        )
        return segments, disabled_wall

    n_ops, disabled_wall = benchmark.pedantic(measure, rounds=1, iterations=1)
    per_op = per_segment_cost()
    overhead = n_ops * per_op
    fraction = overhead / disabled_wall
    show(
        f"FAILOVER overhead: {n_ops} segment ops x {per_op * 1e9:.0f} ns "
        f"= {overhead * 1e3:.2f} ms over a {disabled_wall * 1e3:.0f} ms run "
        f"-> {fraction:.3%} (bound {MAX_OVERHEAD_FRACTION:.0%})"
    )
    assert n_ops > 0
    assert fraction < MAX_OVERHEAD_FRACTION
