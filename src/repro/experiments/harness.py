"""Service-level experiment runner.

A :class:`ServiceExperiment` bundles everything one comparison run needs —
topology, workload scenario, selection policy, cache policy, switching
cadence, traffic shaping — and :func:`run_service_experiment` executes it
end to end on the discrete-event engine, returning aggregate
:class:`~repro.metrics.collectors.SessionMetrics`.

The policy knobs are strings so benchmark parameter sweeps stay declarative:

=============  =====================================================
``selection``  ``"vra"`` | ``"random"`` | ``"minhop"`` | ``"static"``
               | ``"origin:<uid>"``
``cache``      ``"dma"`` | ``"dma-greedy"`` (evict_until_fits) |
               ``"nocache"`` | ``"lru"`` | ``"fullrep"``
``switching``  ``"always"`` | ``"never"`` | ``"period:<n>"``
=============  =====================================================
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.baselines.caching import (
    FullReplicationPolicy,
    LruCachePolicy,
    NoCachePolicy,
)
from repro.baselines.selection import (
    HomeOnlySelection,
    MinHopSelection,
    RandomSelection,
    StaticNearestSelection,
)
from repro.baselines.switching import NeverSwitch, PeriodicRecompute
from repro.core.service import ServiceConfig, VoDService
from repro.errors import ReproError, ServiceError
from repro.metrics.collectors import SessionMetrics, summarize_sessions
from repro.network.grnet import build_grnet_topology
from repro.network.topology import Topology
from repro.placement.whole_title import WholeTitleDma
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.trace import Tracer
from repro.workload.scenarios import WorkloadScenario
from repro.workload.traces import Table2Replayer


@dataclass
class ServiceExperiment:
    """One end-to-end experiment definition.

    Attributes:
        name: Label for reports.
        scenario: The request schedule and catalog.
        config: Service deployment knobs.
        selection: Server-selection policy key (see module docstring).
        cache: Cache policy key.
        switching: Mid-stream switching cadence key.
        topology_factory: Builds the network (defaults to GRNET).
        seed_origin_uids: Servers receiving the initial single copy of each
            title, round-robin; defaults to every node.
        replay_table2: Drive background traffic through the paper's Table 2
            day while the experiment runs.
        run_until: Simulated end time; defaults to the scenario horizon
            plus an hour of drain time.
        seed: Seed for any randomised policy (e.g. random selection).
        start_time: Simulated clock at experiment start (e.g. 8am for
            Table 2 replays).
        tracer: Optional structured event trace handed to the service
            (the obs CLI passes an enabled one so spans land somewhere).
        service_hook: Optional callable invoked with the freshly built
            service before it starts — the CLI uses it to attach a
            streaming telemetry sink; fault/chaos tooling can use it to
            attach injectors.
    """

    name: str
    scenario: WorkloadScenario
    config: ServiceConfig = field(default_factory=ServiceConfig)
    selection: str = "vra"
    cache: str = "dma"
    switching: str = "always"
    topology_factory: Callable[[], Topology] = build_grnet_topology
    seed_origin_uids: Optional[Sequence[str]] = None
    replay_table2: bool = False
    run_until: Optional[float] = None
    seed: int = 0
    start_time: float = 0.0
    tracer: Optional[Tracer] = None
    service_hook: Optional[Callable[[VoDService], None]] = None


@dataclass
class SweepResult:
    """Outcome of one experiment run.

    Attributes:
        experiment: The definition that ran.
        metrics: Aggregate session metrics.
        service: The service instance (for deeper inspection).
    """

    experiment: ServiceExperiment
    metrics: SessionMetrics
    service: VoDService


def _apply_selection(service: VoDService, key: str, seed: int) -> None:
    if key == "vra":
        return
    if key == "random":
        service.vra = RandomSelection(service.topology, rng=random.Random(seed))
    elif key == "minhop":
        service.vra = MinHopSelection(service.topology)
    elif key == "static":
        service.vra = StaticNearestSelection(service.topology)
    elif key.startswith("origin:"):
        service.vra = HomeOnlySelection(service.topology, origin_uid=key.split(":", 1)[1])
    else:
        raise ReproError(f"unknown selection policy {key!r}")


def _apply_cache(service: VoDService, key: str) -> None:
    if key == "dma":
        return
    factories = {
        "dma-greedy": lambda array, on_store, on_evict: WholeTitleDma(
            array, on_store=on_store, on_evict=on_evict, evict_until_fits=True
        ),
        "nocache": NoCachePolicy,
        "lru": LruCachePolicy,
        "fullrep": FullReplicationPolicy,
    }
    if key not in factories:
        raise ReproError(f"unknown cache policy {key!r}")
    for server in service.servers.values():
        server.set_cache_policy(factories[key])


def _apply_switching(service: VoDService, key: str) -> None:
    if key == "always":
        return
    if key == "never":
        service.decide_wrapper = NeverSwitch
    elif key.startswith("period:"):
        period = int(key.split(":", 1)[1])
        service.decide_wrapper = lambda decide: PeriodicRecompute(decide, period)
    else:
        raise ReproError(f"unknown switching policy {key!r}")


def build_service(experiment: ServiceExperiment) -> VoDService:
    """Construct and seed the service for an experiment (no requests yet)."""
    sim = Simulator(start_time=experiment.start_time)
    topology = experiment.topology_factory()
    service = VoDService(sim, topology, experiment.config, tracer=experiment.tracer)
    _apply_selection(service, experiment.selection, experiment.seed)
    _apply_cache(service, experiment.cache)
    _apply_switching(service, experiment.switching)

    origins = list(
        experiment.seed_origin_uids
        if experiment.seed_origin_uids is not None
        else topology.node_uids()
    )
    if not origins:
        raise ServiceError("experiment needs at least one seed origin server")
    for index, title in enumerate(experiment.scenario.catalog):
        service.seed_title(origins[index % len(origins)], title)
    return service


def run_service_experiment(experiment: ServiceExperiment) -> SweepResult:
    """Run one experiment end to end and summarise it.

    Raises:
        ServiceError: If any session's process died on an unhandled
            exception (such a session is neither completed nor failed, so
            the metrics alone would hide it); the first one is chained.
    """
    service = build_service(experiment)
    sim = service.sim
    if experiment.service_hook is not None:
        experiment.service_hook(service)

    if experiment.replay_table2:
        Table2Replayer(sim, service.topology).start()
    service.start()

    processes: List[Process] = []
    sim.schedule_many(
        (
            (
                experiment.start_time + event.time_s,
                lambda e=event: processes.append(
                    service.request_by_home(e.home_uid, e.title_id, e.client_id)[2]
                ),
                (),
                f"request:{event.client_id}",
            )
            for event in experiment.scenario.events
        ),
        absolute=True,
    )

    horizon = experiment.run_until
    if horizon is None:
        horizon = experiment.start_time + experiment.scenario.duration_s + 3 * 3600.0
    sim.run(until=horizon)
    crashed = [process for process in processes if process.error is not None]
    if crashed:
        first = crashed[0]
        raise ServiceError(
            f"{len(crashed)} of {len(processes)} session process(es) died on "
            f"an unhandled exception; first: {first.name}: {first.error!r}"
        ) from first.error
    # Stop periodic tasks implicitly by abandoning the simulator; sessions
    # that outlive the horizon are reported as incomplete by the metrics.
    return SweepResult(
        experiment=experiment,
        metrics=summarize_sessions(service.sessions),
        service=service,
    )


def _experiment_metrics(experiment: ServiceExperiment) -> SessionMetrics:
    """Worker entry point: run one experiment, ship back only the metrics.

    A :class:`SweepResult` holds the live service (closures, simulator),
    which cannot cross a process boundary; the aggregate metrics can.
    """
    return run_service_experiment(experiment).metrics


def run_service_experiments(
    experiments: Sequence[ServiceExperiment],
    jobs: int = 1,
) -> List[SessionMetrics]:
    """Run a batch of experiments, optionally across worker processes.

    Args:
        experiments: The definitions to run.  For ``jobs > 1`` each must
            be picklable: a module-level ``topology_factory``, no tracer.
        jobs: Worker processes; ``1`` runs serially in this process,
            ``None`` uses one per CPU.

    Returns:
        One :class:`SessionMetrics` per experiment, in input order — the
        same values at any job count, since every experiment is an
        isolated deterministic simulation.  Callers needing the live
        service must use :func:`run_service_experiment` serially.
    """
    from repro.experiments.sweeps import resolve_jobs

    batch = list(experiments)
    workers = min(resolve_jobs(jobs), max(len(batch), 1))
    if workers <= 1:
        return [run_service_experiment(e).metrics for e in batch]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_experiment_metrics, batch))
