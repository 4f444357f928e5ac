"""Resilience experiment: a seeded fault storm against the full service.

Runs a regional workload on GRNET while a
:class:`~repro.faults.injector.FaultInjector` replays a seeded
:class:`~repro.faults.schedule.FaultSchedule` — links flapping and
degrading, servers crashing, disks dying, the SNMP collectors going
dark — with session retry/backoff turned on, and reduces the run to a
:class:`ResilienceReport`.

Every figure in the report is a count or a simulated-time value, never a
wall-clock one, so the same seed and parameters reproduce the report
bit-for-bit (the replay test pins this).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Optional

from repro.core.service import ServiceConfig, VoDService
from repro.experiments.harness import ServiceExperiment, build_service
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.metrics.collectors import SessionMetrics, summarize_sessions
from repro.metrics.stats import percentile
from repro.network.grnet import build_grnet_topology
from repro.workload.scenarios import regional_scenario

#: The chaos run's default service: five cluster-boundary retries, every
#: other resilience layer off (``repro chaos``'s defaults).
CHAOS_CONFIG = ServiceConfig(retry_attempts=5)

#: Report fields that exist only when a failover supervisor ran.
_SUPERVISOR_ONLY = ("failover_stall_s_p50", "failover_wakeups", "failover_stall_decides")


@dataclass(frozen=True)
class ResilienceReport:
    """Deterministic summary of one chaos run.

    Attributes:
        name: Experiment label.
        seed: Master seed (workload and fault schedule).
        duration_s: Fault/workload horizon in simulated seconds.
        session_count: Sessions submitted.
        completed_count: Sessions that delivered every cluster.
        failed_count: Sessions that finished without completing.
        availability: Completed over finished sessions (1.0 when nothing
            finished) — the chaos CLI's ``--min-availability`` floor.
        total_retries: Cluster-boundary retries taken across sessions.
        total_retry_wait_s: Simulated seconds spent backing off.
        recovered_sessions: Sessions that lost every source and then
            found one again via retry.
        faults_scheduled: Events in the schedule.
        faults_injected: Injections applied, by fault kind.
        faults_recovered: Fault windows closed, by kind.
        mean_fault_mttr_s: Mean injection-to-recovery time (s).
        snmp_blackout_skips: Collection rounds skipped by blackouts.
        metrics: The standard session aggregate for deeper comparison.
        failover_count: Mid-stream migrations taken by the supervisor
            (0 unless ``session_failover`` is on).
        failover_stall_s_total: Total stall seconds across failovers.
        failover_stall_s_p95: 95th-percentile stall per failover (s).
        failover_stall_s_p50: Median stall per failover (s).
        failover_wakeups: Wake-ups the supervisor sent to parked stalls.
        failover_stall_decides: Decides stalled sessions ran after a
            failure; never more than ``failover_wakeups``.  These three
            are None without a supervisor and then left out of
            :meth:`as_dict`, so such a run prints the JSON it printed
            before they existed.
        sessions_failed_over: Distinct sessions that migrated at least
            once mid-stream.
        failover_failed_sessions: Sessions the supervisor let fail
            because no online full holder remained.
        preemptions: Transfer segments interrupted by a path fault.
        p95_stall_s: 95th-percentile total playback stall over completed
            sessions (s) — the chaos CLI's ``--max-p95-stall-s`` gate.
        stale_transitions: Staleness-guard refreshes that changed the
            stale set.
    """

    name: str
    seed: int
    duration_s: float
    session_count: int
    completed_count: int
    failed_count: int
    availability: float
    total_retries: int
    total_retry_wait_s: float
    recovered_sessions: int
    faults_scheduled: int
    faults_injected: Dict[str, int] = field(default_factory=dict)
    faults_recovered: Dict[str, int] = field(default_factory=dict)
    mean_fault_mttr_s: float = 0.0
    snmp_blackout_skips: int = 0
    metrics: Optional[SessionMetrics] = None
    failover_count: int = 0
    failover_stall_s_total: float = 0.0
    failover_stall_s_p95: float = 0.0
    sessions_failed_over: int = 0
    failover_failed_sessions: int = 0
    preemptions: int = 0
    p95_stall_s: float = 0.0
    stale_transitions: int = 0
    failover_stall_s_p50: Optional[float] = None
    failover_wakeups: Optional[int] = None
    failover_stall_decides: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serialisable) for the chaos CLI."""
        return {
            key: value for key, value in asdict(self).items()
            if value is not None or key not in _SUPERVISOR_ONLY
        }


@dataclass
class ResilienceRun:
    """A finished chaos run: the report plus the live objects behind it."""

    report: ResilienceReport
    service: VoDService
    injector: FaultInjector
    schedule: FaultSchedule


def run_resilience_experiment(
    seed: int = 42,
    duration_s: float = 4 * 3600.0,
    requests_per_node: int = 30,
    *,
    link_flap_rate_per_h: float = 2.0,
    link_degrade_rate_per_h: float = 2.0,
    server_crash_rate_per_h: float = 1.0,
    disk_failure_rate_per_h: float = 0.5,
    snmp_blackout_rate_per_h: float = 0.5,
    mean_fault_duration_s: float = 300.0,
    config: ServiceConfig = CHAOS_CONFIG,
    service_hook: Optional[Callable[..., None]] = None,
) -> ResilienceRun:
    """Run one seeded chaos experiment end to end.

    The workload is :func:`~repro.workload.scenarios.regional_scenario`
    over every GRNET node; the fault storm is
    :meth:`FaultSchedule.seeded <repro.faults.schedule.FaultSchedule.seeded>`
    with the rates given, targeting every link and server of the
    topology.  Sessions run with retry/backoff enabled (unless a custom
    ``config`` says otherwise), so mid-stream source loss is survivable.
    Every resilience setting (retry, failover, staleness) is a
    ``config`` field.

    Args:
        seed: Master seed for workload and fault schedule alike.
        duration_s: Horizon for both (the sim drains three extra hours).
        requests_per_node: Mean workload intensity per node.
        link_flap_rate_per_h: Link failures per hour, whole network.
        link_degrade_rate_per_h: Bandwidth shortages per hour.
        server_crash_rate_per_h: Server crashes per hour.
        disk_failure_rate_per_h: Disk failures per hour.
        snmp_blackout_rate_per_h: Collector blackouts per hour.
        mean_fault_duration_s: Mean fault window length.
        config: The service config; defaults to :data:`CHAOS_CONFIG`.
        service_hook: Optional callable invoked with the freshly built
            service before it starts (e.g. to attach a streaming
            telemetry sink).

    Returns:
        The :class:`ResilienceRun` with the deterministic report.
    """
    # Fault targets come from a probe topology; build_service builds its
    # own GRNET instance, so only names cross over.
    probe = build_grnet_topology()
    node_uids = list(probe.node_uids())
    link_names = [link.name for link in probe.links()]
    schedule = FaultSchedule.seeded(
        seed=seed,
        duration_s=duration_s,
        link_names=link_names,
        server_uids=node_uids,
        link_flap_rate_per_h=link_flap_rate_per_h,
        link_degrade_rate_per_h=link_degrade_rate_per_h,
        server_crash_rate_per_h=server_crash_rate_per_h,
        disk_failure_rate_per_h=disk_failure_rate_per_h,
        snmp_blackout_rate_per_h=snmp_blackout_rate_per_h,
        mean_fault_duration_s=mean_fault_duration_s,
        disks_per_server=config.disk_count,
    )

    scenario = regional_scenario(
        node_uids,
        requests_per_node=requests_per_node,
        horizon_s=duration_s,
        seed=seed,
    )
    experiment = ServiceExperiment(
        name="resilience",
        scenario=scenario,
        config=config,
    )
    service = build_service(experiment)
    if service_hook is not None:
        service_hook(service)
    sim = service.sim
    injector = FaultInjector(service, schedule)
    service.start()
    injector.start()
    for event in scenario.events:
        sim.schedule_at(
            event.time_s,
            lambda e=event: service.request_by_home(e.home_uid, e.title_id, e.client_id),
            name=f"request:{event.client_id}",
        )
    # Drain well past the horizon so backed-off sessions finish and the
    # last fault windows close (schedule recoveries may outlive them).
    sim.run(until=max(duration_s, schedule.horizon_s) + 3 * 3600.0)

    report = _build_report(seed, duration_s, service, injector, schedule)
    return ResilienceRun(
        report=report, service=service, injector=injector, schedule=schedule
    )


def _build_report(
    seed: int,
    duration_s: float,
    service: VoDService,
    injector: FaultInjector,
    schedule: FaultSchedule,
) -> ResilienceReport:
    """Reduce a finished chaos run to the deterministic report."""
    records = service.sessions
    finished = [r for r in records if r.request.finished]
    completed = [r for r in finished if r.completed]
    failed = [r for r in finished if not r.completed]
    supervisor = service.supervisor
    stalls = supervisor.stall_log if supervisor is not None else []
    completed_stalls = [r.stall_s for r in completed]
    guard = service.staleness_guard
    return ResilienceReport(
        name="resilience",
        seed=seed,
        duration_s=duration_s,
        session_count=len(records),
        completed_count=len(completed),
        failed_count=len(failed),
        availability=(len(completed) / len(finished)) if finished else 1.0,
        total_retries=sum(r.retry_count for r in records),
        total_retry_wait_s=sum(r.retry_wait_s for r in records),
        recovered_sessions=sum(1 for r in records if r.recovered),
        faults_scheduled=len(schedule),
        faults_injected=dict(injector.injected_by_kind),
        faults_recovered=dict(injector.recovered_by_kind),
        mean_fault_mttr_s=injector.mean_mttr_s,
        snmp_blackout_skips=service.statistics.blackout_skips,
        metrics=summarize_sessions(records),
        failover_count=supervisor.failover_count if supervisor is not None else 0,
        failover_stall_s_total=sum(stalls),
        failover_stall_s_p95=percentile(stalls, 95.0) if stalls else 0.0,
        sessions_failed_over=sum(1 for r in records if r.failover_count > 0),
        failover_failed_sessions=(
            supervisor.failed_count if supervisor is not None else 0
        ),
        preemptions=supervisor.preemption_count if supervisor is not None else 0,
        p95_stall_s=(
            percentile(completed_stalls, 95.0) if completed_stalls else 0.0
        ),
        stale_transitions=guard.transition_count if guard is not None else 0,
        failover_stall_s_p50=(
            (percentile(stalls, 50.0) if stalls else 0.0) if supervisor is not None else None
        ),
        failover_wakeups=supervisor.wakeups if supervisor is not None else None,
        failover_stall_decides=(
            supervisor.stall_decides if supervisor is not None else None
        ),
    )


def render_resilience_report(report: ResilienceReport) -> str:
    """ASCII rendering of a chaos run, in the repo's report style."""
    lines = [
        f"resilience report: {report.name} (seed {report.seed}, "
        f"{report.duration_s / 3600.0:g} h horizon)",
        "-" * 64,
        f"sessions      {report.session_count:6d} submitted   "
        f"{report.completed_count:6d} completed   {report.failed_count:6d} failed",
        f"availability  {report.availability:8.2%}",
        f"retries       {report.total_retries:6d} taken       "
        f"{report.recovered_sessions:6d} sessions recovered   "
        f"{report.total_retry_wait_s:8.1f} s backed off",
        f"faults        {report.faults_scheduled:6d} scheduled   "
        f"mean MTTR {report.mean_fault_mttr_s:8.1f} s   "
        f"{report.snmp_blackout_skips} SNMP round(s) dark",
    ]
    for kind in sorted(report.faults_injected):
        lines.append(
            f"  {kind:<16} {report.faults_injected[kind]:5d} injected"
            f"   {report.faults_recovered.get(kind, 0):5d} recovered"
        )
    if report.failover_count or report.preemptions or report.failover_failed_sessions:
        lines.append(
            f"failover      {report.failover_count:6d} migrations  "
            f"{report.sessions_failed_over:6d} sessions moved       "
            f"{report.failover_failed_sessions:6d} failed (no holder)"
        )
        lines.append(
            f"  stall         {report.failover_stall_s_total:8.1f} s total   "
            f"p95 {report.failover_stall_s_p95:8.1f} s per failover   "
            f"({report.preemptions} preemption(s))"
        )
        lines.append(
            f"  wake-ups      {report.failover_wakeups:6d} sent        "
            f"{report.failover_stall_decides:6d} decides after a failure   "
            f"p50 stall {report.failover_stall_s_p50:8.1f} s"
        )
    if report.stale_transitions:
        lines.append(
            f"staleness     {report.stale_transitions:6d} stale-set change(s)"
        )
    if report.metrics is not None:
        m = report.metrics
        lines.append(
            f"sessions qos  startup {m.mean_startup_s:6.1f} s mean   "
            f"stall {m.mean_stall_s:6.1f} s mean   "
            f"{m.total_switches} switch(es)"
        )
    return "\n".join(lines)
