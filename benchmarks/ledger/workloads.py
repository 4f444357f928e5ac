"""The four whole-run workloads of the perf ledger.

Every workload is a closed loop by construction: one process, one thread,
and the discrete-event engine drains a schedule generated up front from
``--seed`` (``decision_burst`` generates each round's keys between timed
rounds, to keep 6 M keys out of ``peak_rss_mb``).  The program under test
receives only generated inputs; all of its caches start empty, and only
``decision_burst`` runs one untimed warm round before timing.

Each builder returns a :class:`Workload` whose ``drive()`` runs the timed
region and returns its host seconds.  Only the public names listed in the
issue are imported, and ``ServiceConfig`` is built through
:func:`make_config`, so the simplification PRs this benchmark judges can
drop knobs and layers without editing it.

``scale`` multiplies the amount of work (``--seconds / 10``); 1.0 is the
reference size whose timed region takes roughly ten seconds on the
two-core reference box.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import ServiceConfig, Simulator, VideoTitle, VoDService

#: Scratch directory for the chaos-storm telemetry stream; inside the
#: checkout (the benchmark may write nowhere else) and gitignored.
WORK_DIR = Path(__file__).resolve().parent / "_work"

EIGHT_AM = 8 * 3600.0


def make_config(**wanted):
    """``ServiceConfig(**wanted)`` minus the keyword names it no longer has.

    Returns ``(config, dropped_names)``; the effective config and the
    dropped names are both recorded in the output, so a run on a commit
    that removed a knob says so instead of failing.
    """
    known = {f.name for f in dataclasses.fields(ServiceConfig)}
    dropped = sorted(set(wanted) - known)
    config = ServiceConfig(**{k: v for k, v in wanted.items() if k in known})
    return config, dropped


@dataclasses.dataclass
class Workload:
    """One built workload, ready to drive.

    Attributes:
        name: Workload name.
        service: The service under test.
        inputs_sha256: Hash of every generated input (same seed => same).
        dropped_config: ``ServiceConfig`` keyword names the commit lacks.
        drive: Runs the timed region, appending the host seconds of each
            timed segment to ``segment_s``.
        segment_s: One entry per timed segment: one for a session workload,
            one per round for ``decision_burst``.
        processes: Session processes in submission order (session
            workloads); a process holding an ``error`` is a crashed session.
        submitted: Requests scheduled (session workloads).
        decisions: Filled by ``decision_burst``: attempted / failed /
            oracle-checked / oracle-mismatched counts, local-serve share and
            the decision-stream fingerprint.
        injector: The fault injector (``chaos_storm``), else None.
        streamer: The streaming telemetry drain (``chaos_storm``), else None.
    """

    name: str
    service: VoDService
    inputs_sha256: str
    dropped_config: List[str]
    drive: Optional[Callable[[], None]] = None
    segment_s: List[float] = dataclasses.field(default_factory=list)
    processes: list = dataclasses.field(default_factory=list)
    submitted: int = 0
    decisions: Optional[Dict[str, object]] = None
    injector: object = None
    streamer: object = None


def _sha256(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _catalog(count: int, size_mb: float, duration_s: float) -> List[VideoTitle]:
    return [
        VideoTitle(f"title-{i:03d}", size_mb=size_mb, duration_s=duration_s)
        for i in range(count)
    ]


def _seed_round_robin(service, catalog, origins) -> None:
    for index, title in enumerate(catalog):
        service.seed_title(origins[index % len(origins)], title)


def _schedule_requests(workload: Workload, events, offset_s: float) -> None:
    """Put the pre-generated request schedule on the event heap."""
    service, sim = workload.service, workload.service.sim
    processes = workload.processes

    def submit(home_uid, title_id, client_id):
        processes.append(service.request_by_home(home_uid, title_id, client_id)[2])

    for event in events:
        sim.schedule_at(
            offset_s + event.time_s,
            submit,
            event.home_uid,
            event.title_id,
            event.client_id,
            name=f"request:{event.client_id}",
        )
    workload.submitted = len(events)


def _timed(segment_s: List[float], body: Callable[[], None], region=None) -> None:
    """Run ``body`` as one timed segment (under the tracer's root span
    when there is a tracer)."""
    started = time.perf_counter()
    if region is not None:
        region(body)
    else:
        body()
    segment_s.append(time.perf_counter() - started)


def _drain(workload: Workload, until: float, tracer, after=None) -> None:
    """Give a session workload its timed region: drain the schedule."""
    sim = workload.service.sim

    def body():
        sim.run(until=until)
        if after is not None:
            after()

    workload.drive = lambda: _timed(
        workload.segment_s, body, tracer.region if tracer is not None else None
    )


def _events_digest(events) -> list:
    return [(e.time_s, e.home_uid, e.title_id) for e in events]


# ---------------------------------------------------------------------- #
# grnet_day
# ---------------------------------------------------------------------- #
def build_grnet_day(seed: int, scale: float, tracer=None) -> Workload:
    """The paper's deployment with paper-default knobs, one Table 2 day."""
    from repro.network.grnet import build_grnet_topology
    from repro.workload.scenarios import regional_scenario
    from repro.workload.traces import Table2Replayer

    horizon_s, drain_s = 10 * 3600.0, 4 * 3600.0
    sim = Simulator(start_time=EIGHT_AM)
    topology = build_grnet_topology()
    config, dropped = make_config(
        cluster_mb=25.0, disk_count=4, disk_capacity_mb=500.0, max_streams=1024
    )
    service = VoDService(sim, topology, config)
    catalog = _catalog(60, size_mb=100.0, duration_s=3600.0)
    homes = list(topology.node_uids())
    _seed_round_robin(service, catalog, homes)
    scenario = regional_scenario(
        homes,
        requests_per_node=max(1, round(1200 * scale)),
        horizon_s=horizon_s,
        seed=seed,
        catalog=catalog,
    )
    workload = Workload(
        name="grnet_day",
        service=service,
        inputs_sha256=_sha256(_events_digest(scenario.events)),
        dropped_config=dropped,
    )
    _drain(workload, EIGHT_AM + horizon_s + drain_s, tracer)
    if tracer is not None:
        tracer.install(workload)
    Table2Replayer(sim, topology).start()
    service.start()
    _schedule_requests(workload, scenario.events, EIGHT_AM)
    return workload


# ---------------------------------------------------------------------- #
# backbone200_churn
# ---------------------------------------------------------------------- #
def build_backbone200_churn(seed: int, scale: float, tracer=None) -> Workload:
    """Short clips on a 200-node backbone whose traffic is re-drawn every
    minute: the write/invalidate use of the routing memo layers."""
    from repro.network.topologies import random_topology
    from repro.workload.scenarios import regional_scenario

    # The horizon scales with the work so the request *rate*, and with it
    # the share of SNMP rounds and churn events per session, stays put.
    horizon_s = 4 * 3600.0 * scale
    drain_s = 1800.0
    sim = Simulator()
    # The wiring is part of the workload definition, not of the seed:
    # 499 links puts the compiled kernel on its numpy backend.
    topology = random_topology(
        200, extra_links=300, capacity_mbps=34.0, rng=random.Random(2000)
    )
    config, dropped = make_config(cluster_mb=16.0, snmp_period_s=90.0)
    service = VoDService(sim, topology, config)
    catalog = _catalog(200, size_mb=30.0, duration_s=300.0)
    homes = list(topology.node_uids())
    _seed_round_robin(service, catalog, homes[::10])
    scenario = regional_scenario(
        homes,
        requests_per_node=max(1, round(60 * scale)),
        horizon_s=horizon_s,
        seed=seed,
        catalog=catalog,
    )
    churn_rng = random.Random(seed)
    links = list(topology.links())

    def churn():
        for link in churn_rng.sample(links, 25):
            link.set_background_mbps(churn_rng.uniform(0.0, 0.8) * link.capacity_mbps)
        if sim.now + 60.0 <= horizon_s:
            sim.schedule(60.0, churn, name="churn:tick")

    workload = Workload(
        name="backbone200_churn",
        service=service,
        inputs_sha256=_sha256(_events_digest(scenario.events)),
        dropped_config=dropped,
    )
    _drain(workload, horizon_s + drain_s, tracer)
    if tracer is not None:
        tracer.install(workload)
    service.start()
    sim.schedule(60.0, churn, name="churn:tick")
    _schedule_requests(workload, scenario.events, 0.0)
    return workload


# ---------------------------------------------------------------------- #
# decision_burst
# ---------------------------------------------------------------------- #
ROUND_S = 90.0  # one SNMP period
ROUND_DECISIONS = 20_000
ORACLE_STRIDE = 1000


def build_decision_burst(seed: int, scale: float, tracer=None) -> Workload:
    """Control plane only: rounds of (one SNMP period, then 20 000
    closed-loop ``service.decide`` calls over 720 keys against a 256-slot
    decision memo)."""
    from repro.network.grnet import build_grnet_topology
    from repro.workload.traces import Table2Replayer

    rounds = max(1, round(360 * scale))
    catalog = _catalog(120, size_mb=100.0, duration_s=3600.0)
    title_ids = [title.title_id for title in catalog]

    def build(**overrides):
        sim = Simulator(start_time=EIGHT_AM)
        topology = build_grnet_topology()
        config, dropped = make_config(
            **{"decision_cache_size": 256, "snmp_period_s": ROUND_S, **overrides}
        )
        service = VoDService(sim, topology, config)
        _seed_round_robin(service, catalog, list(topology.node_uids()))
        return sim, topology, service, dropped

    sim, topology, service, dropped = build()
    # The oracle answers the sampled decisions on the plain reference path
    # (no routing cache, no memo, python LVN + dict Dijkstra), from a
    # service advanced in lock-step to the same simulated state.
    oracle_sim, oracle_topology, oracle, _ = build(
        decision_cache_size=0, routing_cache_size=0, compiled_routing=False
    )
    homes = list(topology.node_uids())
    keys = [(home, title) for home in homes for title in title_ids]
    # 70 % one hot title, 30 % a Zipf(1.0) tail over the rest; homes uniform.
    tail = [1.0 / rank for rank in range(1, len(title_ids))]
    title_weights = [0.7] + [0.3 * w / sum(tail) for w in tail]
    cum_weights = list(
        itertools.accumulate(w / len(homes) for _ in homes for w in title_weights)
    )
    key_rng = random.Random(seed)
    inputs = hashlib.sha256()
    stream = hashlib.sha256()
    totals = {
        "attempted": 0, "failed": 0, "local": 0,
        "oracle_checked": 0, "oracle_mismatches": 0,
    }
    region = tracer.region if tracer is not None else None

    def one_round(timed: bool) -> None:
        batch = key_rng.choices(keys, cum_weights=cum_weights, k=ROUND_DECISIONS)
        until = sim.now + ROUND_S
        latest: Dict[Tuple[str, str], object] = {}
        failed = 0

        def body():
            nonlocal failed
            sim.run(until=until)
            decide = service.decide
            for key in batch:
                try:
                    latest[key] = decide(*key)
                except Exception:  # counted; a failed decision is an output
                    failed += 1

        if not timed:
            body()
            return
        _timed(workload.segment_s, body, region)
        # Untimed from here: input/output hashing and the oracle check.
        oracle_sim.run(until=until)
        inputs.update(repr(batch[:: ORACLE_STRIDE]).encode("utf-8"))
        for key in sorted(latest):
            decision = latest[key]
            stream.update(
                repr((key, decision.chosen_uid, decision.path.nodes, decision.cost)).encode("utf-8")
            )
        totals["attempted"] += len(batch)
        totals["failed"] += failed
        totals["local"] += sum(
            1 for key in batch if key in latest and latest[key].served_locally
        )
        # Outside the traced region: the oracle's reference path is not
        # the run's.
        for key in batch[::ORACLE_STRIDE]:
            decision = latest.get(key)
            if decision is None:
                continue
            expected = oracle.decide(*key)
            totals["oracle_checked"] += 1
            if (decision.chosen_uid, decision.path.nodes, decision.cost) != (
                expected.chosen_uid, expected.path.nodes, expected.cost
            ):
                totals["oracle_mismatches"] += 1

    def drive() -> None:
        one_round(timed=False)  # the warm round: fills every memo layer
        for _ in range(rounds):
            one_round(timed=True)
        workload.inputs_sha256 = inputs.hexdigest()
        totals["fingerprint"] = stream.hexdigest()

    workload = Workload(
        name="decision_burst",
        service=service,
        drive=drive,
        inputs_sha256="",  # the keys are drawn per round; set by drive()
        dropped_config=dropped,
        decisions=totals,
    )
    if tracer is not None:
        tracer.install(workload)
    for each_sim, each_topology, each_service in (
        (sim, topology, service), (oracle_sim, oracle_topology, oracle)
    ):
        Table2Replayer(each_sim, each_topology).start()
        each_service.start()
    return workload


# ---------------------------------------------------------------------- #
# chaos_storm
# ---------------------------------------------------------------------- #
def build_chaos_storm(seed: int, scale: float, tracer=None) -> Workload:
    """Every default-off knob on at once, under a seeded fault storm."""
    from repro import PlacementConfig
    from repro.faults import FaultInjector, FaultSchedule
    from repro.network.grnet import build_grnet_topology
    from repro.obs.sink import open_sink
    from repro.obs.stream import StreamingTelemetry
    from repro.workload.scenarios import regional_scenario

    # As on the backbone, the horizon scales so request and fault rates
    # (and with them the failed fraction) do not depend on the scale.
    horizon_s = 8 * 3600.0 * scale
    drain_s = 6 * 3600.0
    sim = Simulator()
    topology = build_grnet_topology()
    config, dropped = make_config(
        cluster_mb=25.0, disk_count=4, disk_capacity_mb=500.0, max_streams=1024,
        retry_attempts=5, retry_backoff_s=20.0, requeue_attempts=2,
        session_failover=True,
        breaker_threshold=3, breaker_window_s=600.0, breaker_cooldown_s=300.0,
        max_stats_age_s=240.0,
        decision_cache_size=256,
        admission_queue_capacity=6, admission_rate_per_s=0.05, admission_tick_s=10.0,
        placement=PlacementConfig(kind="partial", partial_floor=0.2),
        observability=True,
    )
    service = VoDService(sim, topology, config)
    catalog = _catalog(40, size_mb=150.0, duration_s=3600.0)
    homes = list(topology.node_uids())
    _seed_round_robin(service, catalog, homes)
    scenario = regional_scenario(
        homes,
        requests_per_node=max(1, round(400 * scale)),
        horizon_s=horizon_s,
        seed=seed,
        catalog=catalog,
    )
    # Three times the `python -m repro chaos` default rates.
    schedule = FaultSchedule.seeded(
        seed=seed,
        duration_s=horizon_s,
        link_names=[link.name for link in topology.links()],
        server_uids=homes,
        link_flap_rate_per_h=6.0,
        link_degrade_rate_per_h=6.0,
        server_crash_rate_per_h=3.0,
        disk_failure_rate_per_h=1.5,
        snmp_blackout_rate_per_h=1.5,
        mean_fault_duration_s=300.0,
        degrade_fraction=0.5,
        disks_per_server=4,
    )
    injector = FaultInjector(service, schedule)
    WORK_DIR.mkdir(exist_ok=True)
    stream_path = WORK_DIR / f"chaos_storm-{seed}-{time.time_ns()}.jsonl"
    streamer = StreamingTelemetry(
        service, open_sink(str(stream_path), "jsonl"), seed=seed, label="chaos_storm"
    )
    workload = Workload(
        name="chaos_storm",
        service=service,
        inputs_sha256=_sha256(
            [_events_digest(scenario.events), [repr(event) for event in schedule]]
        ),
        dropped_config=dropped,
        injector=injector,
        streamer=streamer,
    )
    # Closing the stream (final drain + footer) is part of the run;
    # ``finish`` is looked up late because the tracer wraps it.
    _drain(
        workload, max(horizon_s, schedule.horizon_s) + drain_s, tracer,
        after=lambda: streamer.finish(),
    )
    if tracer is not None:
        tracer.install(workload)
    streamer.start()
    service.start()
    injector.start()
    _schedule_requests(workload, scenario.events, 0.0)
    return workload


BUILDERS = {
    "grnet_day": build_grnet_day,
    "backbone200_churn": build_backbone200_churn,
    "decision_burst": build_decision_burst,
    "chaos_storm": build_chaos_storm,
}


# ---------------------------------------------------------------------- #
# outputs: what the modelled service delivered (sim time domain)
# ---------------------------------------------------------------------- #
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.999999) - 1))]


def session_fingerprint(records) -> str:
    """sha256 over canonical session records: every cluster's source, path,
    timing and QoS flag, and every session's outcome.  The harness's own
    (not ``repro.experiments``'), so a refactor there cannot move it."""
    return _sha256(
        [
            [
                r.request.client_id, r.request.home_uid, r.request.title_id,
                r.request.submitted_at, r.request.status.value, r.request.failure_reason,
                r.startup_delay_s, r.stall_s, r.switch_count, r.qos_violation_count,
                r.completed_at, r.retry_count, r.admission_wait_s, r.failover_count,
                [
                    [c.index, c.server_uid, list(c.path_nodes), c.rate_mbps,
                     c.start, c.end, c.size_mb, c.switched, c.qos_violated]
                    for c in r.clusters
                ],
            ]
            for r in records
        ]
    )


def outcomes(workload: Workload) -> Dict[str, object]:
    """Sim-domain results, the fingerprint and the output checks of a run."""
    service = workload.service
    problems: List[str] = []
    if workload.decisions is not None:
        d = workload.decisions
        attempted, failed = d["attempted"], d["failed"]
        if d["oracle_mismatches"]:
            problems.append(
                f"{d['oracle_mismatches']} of {d['oracle_checked']} sampled decisions "
                "differ from the reference path"
            )
        if failed:
            problems.append(f"{failed} decisions raised")
        return {
            "attempted": attempted,
            "failed": failed,
            "finished": attempted - failed,
            "ops": attempted - failed,
            "fingerprint": d["fingerprint"],
            "problems": problems,
            "sim": {
                "failed_fraction": failed / attempted,
                "served_fraction": (attempted - failed) / attempted,
                "local_serve_ratio": d["local"] / attempted,
                "oracle_checked": d["oracle_checked"],
            },
        }
    records = service.sessions
    submitted = workload.submitted
    completed = [r for r in records if r.completed]
    crashed = sum(1 for p in workload.processes if p.error is not None)
    unaccounted = crashed + max(0, submitted - len(records))
    if crashed:
        first = next(p.error for p in workload.processes if p.error is not None)
        problems.append(f"{crashed} session processes raised, first: {first!r}")
    if len(records) != submitted:
        problems.append(f"{submitted} requests submitted but {len(records)} session records")
    if all(r.request.finished for r in records):
        # Every session is over, so every reservation must be returned.
        if service.flows.active_count != 0:
            problems.append(f"{service.flows.active_count} flows still active after the run")
        leaked = [l.name for l in service.topology.links() if l.reserved_mbps != 0.0]
        if leaked:
            problems.append(f"links still reserved after the run: {leaked[:5]}")
    clusters = [c for r in records for c in r.clusters]
    violations = sum(r.qos_violation_count for r in records)
    return {
        "attempted": submitted,
        "failed": unaccounted,
        "finished": sum(1 for r in records if r.request.finished),
        "ops": service.sim.events_fired,
        "fingerprint": session_fingerprint(records),
        "problems": problems,
        "sim": {
            "failed_fraction": (submitted - len(completed)) / submitted,
            "served_fraction": len(completed) / submitted,
            "startup_p50_sim_s": percentile([r.startup_delay_s for r in completed], 0.50),
            "startup_p99_sim_s": percentile([r.startup_delay_s for r in completed], 0.99),
            "stall_p99_sim_s": percentile([r.stall_s for r in completed], 0.99),
            "qos_violation_fraction": violations / len(clusters) if clusters else 0.0,
            "transport_mb_hops": sum(c.size_mb * (len(c.path_nodes) - 1) for c in clusters),
            "local_serve_ratio": (
                sum(1 for c in clusters if len(c.path_nodes) == 1) / len(clusters)
                if clusters else 0.0
            ),
            "admission_wait_p99_sim_s": percentile(
                [r.admission_wait_s for r in records if r.request.finished], 0.99
            ),
            "sessions_unfinished": sum(1 for r in records if not r.request.finished),
        },
    }
