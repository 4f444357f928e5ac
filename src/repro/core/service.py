"""The VoD service facade.

:class:`VoDService` wires every subsystem together the way the paper's
architecture section describes:

* a :class:`~repro.database.store.ServiceDatabase` with full- and
  limited-access modules;
* one :class:`~repro.server.video_server.VideoServer` per network node;
* the per-node SNMP statistics modules feeding the limited-access database
  (:class:`~repro.snmp.collector.StatisticsService`);
* the :class:`~repro.core.vra.VirtualRoutingAlgorithm` reading link state
  from the database (staleness included), and
* :class:`~repro.core.session.StreamingSession` processes that re-run the
  VRA per cluster and switch servers dynamically.

The *service initialization* phase of the paper (administrators contribute
link bandwidths and per-server title lists) maps to the constructor plus
:meth:`seed_title` / :meth:`attach_access_network` calls before
:meth:`start`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, Union

from repro.client.client import Client
from repro.client.requests import VideoRequest
from repro.core.admission_queue import (
    DEFAULT_ADMISSION_RATE_PER_S,
    DEFAULT_ADMISSION_TICK_S,
    AdmissionQueue,
)
from repro.core.lvn import DEFAULT_NORMALIZATION_CONSTANT
from repro.core.session import (
    DEFAULT_LOCAL_READ_MBPS,
    DEFAULT_RATE_UPDATE_PERIOD_S,
    NO_RETRY,
    ClusterRecord,
    RetryPolicy,
    SessionObserver,
    SessionRecord,
    StreamingSession,
)
from repro.core.vra import VirtualRoutingAlgorithm, VraDecision
from repro.database.records import LinkEntry, ServerEntry
from repro.database.store import ServiceDatabase
from repro.errors import (
    NoReachableHolderError,
    ReproError,
    RoutingError,
    ServiceError,
    TitleUnavailableError,
)
from repro.network.flows import FlowManager
from repro.network.link import Link
from repro.network.node import Node
from repro.network.routing.paths import Path
from repro.network.topology import Topology
from repro.placement.base import PlacementConfig
from repro.obs.registry import MetricsRegistry
from repro.resilience.breaker import KIND_SERVER, BreakerBoard
from repro.resilience.staleness import StalenessGuard
from repro.resilience.supervisor import SessionSupervisor
from repro.obs.sampler import DEFAULT_SERIES_CAPACITY, TelemetrySampler
from repro.obs.spans import SessionSpan
from repro.server.video_server import VideoServer
from repro.sim.engine import Simulator
from repro.sim.process import Delay, Process
from repro.sim.trace import Tracer
from repro.snmp.collector import DEFAULT_POLL_PERIOD_S, StatisticsService
from repro.storage.video import VideoTitle

#: ``DecideOutcome.outcome`` values.
DECIDE_OK = "ok"
NO_HOLDER = "no-holder"
NO_REACHABLE_HOLDER = "no-reachable-holder"
NO_AVAILABLE_HOLDER = "no-available-holder"


@dataclass(frozen=True)
class DecideOutcome:
    """Explicit result of a degradable VRA decision (:meth:`VoDService.try_decide`).

    Instead of an exception, an impossible decision comes back as an
    outcome string — ``no-holder`` (title nowhere), ``no-reachable-holder``
    (the home server is partitioned from every holder), or
    ``no-available-holder`` (every holder polled out: crashed, at stream
    capacity, or disk-failed).  ``decision`` is set only for ``ok``.
    """

    outcome: str
    decision: Optional[VraDecision] = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        """True when a decision was produced."""
        return self.outcome == DECIDE_OK


@dataclass
class ServiceConfig:
    """Deployment knobs of the VoD service.

    Attributes:
        cluster_mb: Common striping cluster size ``c`` (MB); also the
            dynamic-switching granularity.
        disk_count: Disks per server ("as many disks as possible").
        disk_capacity_mb: Capacity of each disk (MB).
        max_streams: Concurrent outgoing streams per server.
        snmp_period_s: Statistics-module period (paper: 1-2 minutes).
        normalization_constant: The K of equation (4).
        local_read_mbps: Disk read rate for home-server serves.
        use_reported_stats: When True (paper-faithful) the VRA reads link
            usage from the limited-access database, i.e. the latest SNMP
            sample; when False it reads live ground truth from the links.
        use_server_load_in_vra: Future-work extension ("Server
            configuration factor"): fold each server's stream-slot
            occupancy into its node validation, steering the VRA away
            from busy servers.  Default off = the paper's exact eq. (2).
        strict_qos_admission: Future-work extension ("improving the QoS
            standards"): reject a request outright when no candidate
            path can sustain the title's playback rate, instead of
            admitting it at a degraded rate.  Blocked requests fail with
            a ``qos-blocked:`` reason.  Default off = paper behaviour.
        placement: Declarative placement-policy choice
            (:class:`~repro.placement.base.PlacementConfig`): whole-title
            DMA (default, the paper's Figure 2), prefix replication, or
            popularity-weighted partial caching, plus per-policy knobs
            such as the DMA's ``evict_until_fits`` extension (DESIGN.md
            X2).
        pin_seeded_titles: Seed-pinning extension: initialisation-phase
            titles are exempt from cache eviction so the DMA can never
            delete a title's last network-wide copy.  Default True — a
            deployable service needs it; set False for exact Figure 2
            behaviour (the hazard is pinned by a failure-injection test).
        compiled_routing: Run the VRA on the array-compiled kernels
            (:class:`~repro.network.compiled.TopologySnapshot`; python ones
            under ``use_server_load_in_vra``) behind its epoch memo
            (:mod:`repro.network.routing.cache`).  ``False`` is the one
            reference path: the python kernels (``core/lvn.py``, the dict
            ``dijkstra``) and no memo.  Decisions are bit-for-bit
            identical either way (the equivalence suites pin it).
        admission_queue_capacity: Enables the load-leveling admission
            front-end (:class:`~repro.core.admission_queue.AdmissionQueue`)
            when > 0: requests drain from a bounded deterministic FIFO at
            ``admission_rate_per_s`` instead of all starting at once, and
            arrivals past ``capacity`` waiting requests are shed with an
            ``admission-shed:`` failure reason.  ``0`` (default) bypasses
            the queue entirely — legacy-identical admission.
        admission_rate_per_s: Queue drain rate (admissions per simulated
            second, quantised to ``admission_tick_s`` ticks).
        admission_tick_s: Drain-tick width in simulated seconds.
        retry_attempts: Cluster-boundary retry budget per cluster.  When a
            per-cluster VRA run finds no source (all holders crashed,
            partitioned, or polled out), the session backs off and retries
            up to this many times instead of failing instantly.  ``0``
            (default) is the paper's fail-fast behaviour, byte-identical
            to pre-retry runs.
        retry_backoff_s: First retry delay in simulated seconds.
        retry_backoff_multiplier: Exponential backoff growth factor.
        retry_max_backoff_s: Ceiling on any single retry delay.
        requeue_attempts: Strict-QoS admission re-queue budget.  Under
            ``strict_qos_admission``, a rejected request waits
            ``requeue_delay_s`` and re-attempts admission up to this many
            times before failing — crash-recovery storms then shed load
            by delaying rather than dropping.  ``0`` (default) keeps the
            reject-immediately behaviour.
        requeue_delay_s: Simulated wait between admission re-attempts.
        retry_deadline_s: Overall cap on the total simulated time one
            cluster boundary may spend in retry backoff, across all
            attempts.  A retry whose full backoff would cross the
            deadline waits only the remaining slack; once the budget is
            exhausted the next failure propagates.  ``None`` (default)
            keeps the per-attempt-only policy, bit-for-bit.
        session_failover: Mid-stream session failover
            (:class:`~repro.resilience.supervisor.SessionSupervisor`).
            Active transfer segments are indexed by their source server
            and path links; a fault on either (server crash, disk
            failure taking the title, path link offline) *preempts* the
            session immediately — it re-runs the VRA and migrates the
            remainder of the cluster to a surviving holder, stalling
            through ``failover_backoff_s`` waits while holders exist but
            none is currently usable.  A session fails only when no
            online full holder of its title remains.  Default off —
            faults mid-transfer then play out exactly as before (the
            stream limps to the boundary or dies there).
        failover_backoff_s: Wait between failover re-decide attempts.
        breaker_threshold: Per-server/per-link circuit breakers
            (:class:`~repro.resilience.breaker.BreakerBoard`) trip after
            this many failures inside ``breaker_window_s``.  An open
            server breaker filters that server out of the VRA's holder
            set (never to emptiness — with every holder tripped the
            unfiltered set is used, so breakers cannot cause a failure);
            an open link breaker conservatively inflates that link's
            weight to look saturated (reported-stats path only).  After
            ``breaker_cooldown_s`` the breaker half-opens and the next
            success closes it.  Transitions ride the existing
            version-counter machinery — no new invalidation paths.  ``0``
            (default) disables breakers entirely.
        breaker_window_s: Sliding failure-count window.
        breaker_cooldown_s: Open-state dwell before the half-open probe.
        max_stats_age_s: Staleness guard over the SNMP-fed link stats
            (:class:`~repro.resilience.staleness.StalenessGuard`).  A
            link whose latest sample is older than this — e.g. during an
            ``SnmpBlackout`` — has its headroom shrunk by
            ``stale_inflation_factor`` in the LVN weights, and every
            decision taken while any link is stale is marked
            ``degraded``.  Requires ``use_reported_stats``.  ``None``
            (default) trusts samples of any age, as the paper does.
        stale_inflation_factor: Headroom divisor for stale links (> 1).
        staleness_check_period_s: Spacing of the guard's periodic
            refresh; ``None`` (default) follows ``snmp_period_s``.
        observability: Enable the unified telemetry layer: a live
            metrics registry (per-link utilisation, cache occupancy,
            stream load, VRA decision counters, sim-engine gauges), a
            sim-time sampler snapshotting gauges into ring buffers, and
            per-request session spans.  Default off — the disabled path
            routes every instrument call to shared no-ops (the enabled
            cost is the ledger's ``chaos_storm`` workload,
            ``benchmarks/ledger/``).
        telemetry_period_s: Simulated seconds between telemetry samples
            (only meaningful with ``observability=True``).
        telemetry_capacity: Ring bound per sampled time series.
    """

    cluster_mb: float = 64.0
    disk_count: int = 4
    disk_capacity_mb: float = 20_000.0
    max_streams: int = 32
    snmp_period_s: float = DEFAULT_POLL_PERIOD_S
    normalization_constant: float = DEFAULT_NORMALIZATION_CONSTANT
    local_read_mbps: float = DEFAULT_LOCAL_READ_MBPS
    rate_update_period_s: float = DEFAULT_RATE_UPDATE_PERIOD_S
    use_reported_stats: bool = True
    use_server_load_in_vra: bool = False
    strict_qos_admission: bool = False
    pin_seeded_titles: bool = True
    placement: PlacementConfig = PlacementConfig()
    compiled_routing: bool = True
    admission_queue_capacity: int = 0
    admission_rate_per_s: float = DEFAULT_ADMISSION_RATE_PER_S
    admission_tick_s: float = DEFAULT_ADMISSION_TICK_S
    retry_attempts: int = 0
    retry_backoff_s: float = 30.0
    retry_backoff_multiplier: float = 2.0
    retry_max_backoff_s: float = 300.0
    requeue_attempts: int = 0
    requeue_delay_s: float = 60.0
    retry_deadline_s: Optional[float] = None
    session_failover: bool = False
    failover_backoff_s: float = 15.0
    breaker_threshold: int = 0
    breaker_window_s: float = 600.0
    breaker_cooldown_s: float = 300.0
    max_stats_age_s: Optional[float] = None
    stale_inflation_factor: float = 4.0
    staleness_check_period_s: Optional[float] = None
    observability: bool = False
    telemetry_period_s: float = 60.0
    telemetry_capacity: int = DEFAULT_SERIES_CAPACITY
    #: Per-node hardware overrides ("we propose the use of as many disks
    #: as possible" — sites differ): node uid -> subset of
    #: {disk_count, disk_capacity_mb, max_streams}.  Unlisted nodes use
    #: the uniform values above.
    server_overrides: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def retry_policy(self) -> RetryPolicy:
        """The session retry policy these knobs describe (shared NO_RETRY
        singleton when disabled, so the default path allocates nothing)."""
        if self.retry_attempts <= 0:
            return NO_RETRY
        return RetryPolicy(
            attempts=self.retry_attempts,
            backoff_s=self.retry_backoff_s,
            multiplier=self.retry_backoff_multiplier,
            max_backoff_s=self.retry_max_backoff_s,
            deadline_s=self.retry_deadline_s,
        )


def _points_table_size(server: VideoServer) -> float:
    """Entries in a server's DMA points table; 0 for trackerless policies
    (the caching baselines keep no popularity state)."""
    tracker = getattr(server.dma, "tracker", None)
    return float(len(tracker)) if tracker is not None else 0.0


class _RequestObserver(SessionObserver):
    """What one request's session tells the service: delivery and
    resilience counters, span events, breaker successes, and at the end
    the DMA commit or abort of the download its submit began."""

    __slots__ = ("service", "span", "home_server", "dma_stored")

    def __init__(
        self, service: "VoDService", span: Optional[SessionSpan],
        home_server: VideoServer, dma_stored: bool,
    ):
        self.service = service
        self.span = span
        self.home_server = home_server
        self.dma_stored = dma_stored

    def cluster(self, record: ClusterRecord) -> None:
        service = self.service
        service._m_clusters.inc()
        if record.switched:
            service._m_switches.inc()
        if service.breakers is not None:
            # A delivered cluster is the success signal that closes
            # half-open breakers along the serving path.
            link_names = (
                [link.name for link in service.topology.path_links(record.path_nodes)]
                if len(record.path_nodes) > 1
                else []
            )
            service.breakers.path_success(record.server_uid, link_names)
        span = self.span
        if span is None:
            return
        if record.switched:
            span.add(record.start, "switch", cluster=record.index, to_server=record.server_uid)
        span.add(
            record.end,
            "cluster.delivered",
            index=record.index,
            server_uid=record.server_uid,
            rate_mbps=record.rate_mbps,
            size_mb=record.size_mb,
            qos_violated=record.qos_violated,
        )

    def retry(self, wait_s: float) -> None:
        self.service._m_retries.inc()

    def recover(self, outage_s: float) -> None:
        self.service._m_recoveries.inc()
        self.service._m_recovery_s.observe(outage_s)

    def failover(self, stall_s: float) -> None:
        if self.span is not None:
            self.span.add(self.service.sim.now, "failover", stall_s=stall_s)

    def finish(self, record: SessionRecord) -> None:
        service = self.service
        title_id = record.request.title_id
        if self.dma_stored:
            if record.completed:
                self.home_server.commit_download(title_id)
            else:
                self.home_server.abort_download(title_id)
        if record.completed:
            service._m_completed.inc()
            service._m_startup.observe(record.startup_delay_s)
            service._m_stall.observe(record.stall_s)
        else:
            service._m_failed.inc()
        service._sessions_finished += 1
        status = record.request.status.value
        if self.span is not None:
            service._close_span(self.span, status)
        if service.tracer.enabled:
            service.tracer.record(
                service.sim.now,
                "session.finished",
                f"{record.request.client_id}: {title_id} {status}, "
                f"sources {record.servers_used}, {record.switch_count} switch(es)",
                client_id=record.request.client_id,
                title_id=title_id,
                status=status,
                servers_used=record.servers_used,
                switches=record.switch_count,
                startup_s=record.startup_delay_s,
                stall_s=record.stall_s,
            )


class VoDService:
    """The distributed VoD service over one topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: Optional[ServiceConfig] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        topology.validate()
        self.sim = sim
        self.topology = topology
        self.config = config if config is not None else ServiceConfig()
        #: Structured event trace (disabled by default); categories:
        #: request.submitted / request.blocked, vra.decision,
        #: placement.pass, session.finished, service.expanded.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: The telemetry instrument registry.  Disabled (all no-ops)
        #: unless ``config.observability`` is set or an enabled registry
        #: is passed in explicitly.
        self.obs = (
            registry
            if registry is not None
            else MetricsRegistry(enabled=self.config.observability)
        )
        self._obs_enabled = self.obs.enabled
        #: Whether a memo replay feeds anything besides its hit counter.
        self._replays_watched = self._obs_enabled or self.tracer.enabled
        #: Per-request session spans (populated only when observability
        #: is on).  Every span stays here unless a streamer takes it.
        self.spans: List[SessionSpan] = []
        #: Numbers the requests this service creates: 1, 2, ...
        self._request_ids = itertools.count(1)
        #: Write-behind streaming hook: called with each session span the
        #: moment it finishes (installed by
        #: :class:`repro.obs.stream.StreamingTelemetry`; None otherwise).
        self.on_span_finished: Optional[Callable[[SessionSpan], None]] = None
        #: Ticks with every memo-token input (DESIGN.md §5b.14).
        self._clock = topology.clock
        self.database = ServiceDatabase(self._clock)
        self.flows = FlowManager(topology)
        self._subnet_map: Dict[str, str] = {}
        self._clients: Dict[str, Client] = {}
        self.sessions: List[SessionRecord] = []
        #: How many requests in ``sessions`` are terminal: bumped where a
        #: request ends (the session observer's ``finish``, ``_reject``)
        #: so ``service.sessions_active`` is counted, not scanned.
        self._sessions_finished = 0
        #: Server-availability generation: bumped by every server whenever
        #: anything feeding a VRA poll answer moves (online state, title
        #: residency, disk health, stream slots), and by server-breaker
        #: transitions (they change the holder filter).  Part of the epoch
        #: memo's token (see the VRA wiring below).
        self._availability_version = 0
        self._register_service_instruments()

        # Overrides may name nodes that do not exist *yet*: they apply
        # when that node joins via add_server (runtime expansion).
        self.servers: Dict[str, VideoServer] = {}
        for node in topology.nodes():
            self._join_server(node)
        for link in topology.links():
            self._join_link(link)

        self.statistics = StatisticsService(
            sim,
            topology,
            self.database.limited_access(),
            period_s=self.config.snmp_period_s,
        )
        self.statistics.attach_metrics(self.obs)

        # Resilience layer (every knob default-off: the attributes below
        # stay None and the legacy execution path is byte-identical).
        if (
            self.config.max_stats_age_s is not None
            and not self.config.use_reported_stats
        ):
            raise ServiceError(
                "max_stats_age_s guards the reported (SNMP-fed) link stats "
                "and requires use_reported_stats=True"
            )
        #: Staleness guard over the SNMP-fed link stats; None when off.
        self.staleness_guard: Optional[StalenessGuard] = None
        if self.config.max_stats_age_s is not None:
            self.staleness_guard = StalenessGuard(
                sim,
                self.database,
                topology,
                max_age_s=self.config.max_stats_age_s,
                inflation_factor=self.config.stale_inflation_factor,
                check_period_s=(
                    self.config.staleness_check_period_s
                    if self.config.staleness_check_period_s is not None
                    else self.config.snmp_period_s
                ),
                on_change=self._on_staleness_change,
            )
            # Fresh samples clear staleness in the collection round that
            # wrote them (blackout-skipped rounds do not fire this).
            self.statistics.on_round = self.staleness_guard.refresh
            if self._obs_enabled:
                self.obs.gauge(
                    "snmp.stale_links", subsystem="snmp",
                    description="links whose latest SNMP sample is age-expired",
                    callback=lambda: float(self.staleness_guard.stale_count),
                )
        #: Per-server/per-link circuit breakers; None when threshold is 0.
        self.breakers: Optional[BreakerBoard] = None
        if self.config.breaker_threshold > 0:
            self.breakers = BreakerBoard(
                sim,
                threshold=self.config.breaker_threshold,
                window_s=self.config.breaker_window_s,
                cooldown_s=self.config.breaker_cooldown_s,
                on_transition=self._on_breaker_transition,
                registry=self.obs,
            )
        #: Mid-stream failover supervisor; None when off.
        self.supervisor: Optional[SessionSupervisor] = None
        if self.config.session_failover:
            self.supervisor = SessionSupervisor(
                sim,
                self.servers,
                self.database,
                backoff_s=self.config.failover_backoff_s,
                registry=self.obs,
            )
        if self.supervisor is not None or self.breakers is not None:
            for server in self.servers.values():
                server.on_state_change = self._on_server_state
            topology.on_state_change = self._on_link_state

        # On the reported-stats path the staleness guard and open link
        # breakers interpose on the used-bandwidth reads; without either
        # the plain reader keeps the default path byte-identical.
        used_of: Optional[Callable[[Link], float]] = None
        if self.config.use_reported_stats:
            guarded = self.staleness_guard is not None or self.breakers is not None
            used_of = self._guarded_used if guarded else self._reported_used
        # The epoch memo's token: the routing part (routing_epoch()'s raw
        # counters, a parity test pins them), then the availability part
        # (poll answers, holder lists), which joins the routing part when
        # stream slots feed the weights.  Read once per clock tick.
        db, topo, reported = self.database, topology, self.config.use_reported_stats
        token_of = lambda: (db._link_stats_version if reported else topo._traffic_version,  # noqa: E731
                            topo._state_version, self._availability_version, db._locations_version)
        if not reported:
            topo.traffic_clock = self._clock  # live traffic is a token input
        load_in_vra = self.config.use_server_load_in_vra
        reference = not self.config.compiled_routing
        self._vra = VirtualRoutingAlgorithm(
            topology,
            used_of=used_of,
            normalization_constant=self.config.normalization_constant,
            node_load=self._server_load if load_in_vra else None,
            epoch_of=None if reference else token_of,
            routing_width=3 if load_in_vra else 2,
            metrics=self.obs,
            compiled=not reference,
        )
        self._builtin_vra = self._vra
        #: The VRA's epoch memo, which ``decide`` reads and fills; None on
        #: the reference path and while another policy is installed.
        self._memo = self._vra.cache
        if self._memo is not None:
            self._memo.clock = self._clock
        self._m_decision_hits = self.obs.counter(
            "decision.hits", subsystem="core",
            description="decide() calls answered whole from the epoch memo",
        )
        self._m_decision_misses = self.obs.counter(
            "decision.misses", subsystem="core",
            description="epoch-memo decision lookups that ran the VRA",
        )
        #: The load-leveling admission front-end; None when the knob is 0
        #: (requests go straight to session start, legacy-identical).
        self.admission_queue: Optional[AdmissionQueue] = None
        if self.config.admission_queue_capacity > 0:
            self.admission_queue = AdmissionQueue(
                capacity=self.config.admission_queue_capacity,
                rate_per_s=self.config.admission_rate_per_s,
                tick_s=self.config.admission_tick_s,
            )
            self.admission_queue.attach_metrics(self.obs)
        #: Periodic sim-time gauge sampler (a no-op when observability is
        #: off; started alongside the SNMP collector in :meth:`start`).
        self.telemetry = TelemetrySampler(
            sim,
            self.obs,
            period_s=self.config.telemetry_period_s,
            capacity=self.config.telemetry_capacity,
        )
        self._started = False
        #: Resolved once: every session shares the same policy object.
        self._retry_policy = self.config.retry_policy()
        #: Optional per-session wrapper around the decide function, used by
        #: the switching baselines (e.g. ``NeverSwitch``): called once per
        #: session with the fresh decide closure, returns the one to use.
        self.decide_wrapper: Optional[Callable[[Callable[[], VraDecision]], Callable[[], VraDecision]]] = None

    # ------------------------------------------------------------------ #
    # telemetry registration
    # ------------------------------------------------------------------ #
    def _register_service_instruments(self) -> None:
        """Resolve service-level instruments (all no-ops when disabled)."""
        obs = self.obs
        self._m_requests = obs.counter(
            "service.requests_submitted", subsystem="service",
            description="client requests placed",
        )
        self._m_blocked = obs.counter(
            "service.requests_blocked", subsystem="service",
            description="requests rejected by strict-QoS admission",
        )
        self._m_completed = obs.counter(
            "service.sessions_completed", subsystem="service",
            description="sessions that delivered every cluster",
        )
        self._m_failed = obs.counter(
            "service.sessions_failed", subsystem="service",
            description="sessions that finished without completing",
        )
        self._m_clusters = obs.counter(
            "session.clusters_delivered", subsystem="core",
            description="cluster transfers completed",
        )
        self._m_switches = obs.counter(
            "session.switches", subsystem="core",
            description="mid-stream server switches",
        )
        self._m_retries = obs.counter(
            "resilience.retries", subsystem="core",
            description="cluster-boundary VRA retries taken by sessions",
        )
        self._m_recoveries = obs.counter(
            "resilience.sessions_recovered", subsystem="core",
            description="sessions that lost every source and found one "
            "again via retry/backoff",
        )
        self._m_recovery_s = obs.histogram(
            "resilience.recovery_s", subsystem="core",
            description="simulated time a cluster boundary stayed blocked "
            "before a retry succeeded (s)",
        )
        self._m_requeues = obs.counter(
            "resilience.requeues", subsystem="service",
            description="strict-QoS admission rejections re-queued "
            "instead of dropped",
        )
        self._m_degraded = obs.counter(
            "resilience.degraded_decisions", subsystem="core",
            description="try_decide calls that returned a non-ok outcome",
        )
        self._m_startup = obs.histogram(
            "session.startup_s", subsystem="core",
            description="startup delay of completed sessions (s)",
        )
        self._m_stall = obs.histogram(
            "session.stall_s", subsystem="core",
            description="total stall time of completed sessions (s)",
        )
        if not self._obs_enabled:
            return
        # Observable gauges: evaluated by the telemetry sampler, so the
        # closures below cost nothing between samples.
        obs.gauge(
            "sim.events_fired", subsystem="sim",
            description="cumulative events executed by the engine",
            callback=lambda: float(self.sim.events_fired),
        )
        obs.gauge(
            "sim.pending_events", subsystem="sim",
            description="events scheduled and not yet fired/cancelled",
            callback=lambda: float(self.sim.pending_count),
        )
        obs.gauge(
            "sim.heap_depth", subsystem="sim",
            description="raw event-heap length (cancelled carcasses included)",
            callback=lambda: float(self.sim.heap_depth),
        )
        # Cancelled-carcass compactions are engine-internal events, so the
        # counter rides the engine's hook rather than a sampled gauge.
        m_compactions = obs.counter(
            "engine.heap_compactions", subsystem="sim",
            description="cancelled-carcass heap compactions performed",
        )
        self.sim.on_compaction = m_compactions.inc
        obs.gauge(
            "service.sessions_active", subsystem="service",
            description="sessions submitted and not yet finished",
            callback=lambda: float(len(self.sessions) - self._sessions_finished),
        )
        obs.gauge(
            "service.flows_active", subsystem="network",
            description="bandwidth reservations currently held",
            callback=lambda: float(self.flows.active_count),
        )
        obs.gauge(
            "routing.cache_hit_rate", subsystem="core",
            description="epoch-memo table/tree hits over lookups, in [0, 1]",
            callback=lambda: self._memo.stats.hit_rate if self._memo else 0.0,
        )
        obs.gauge(
            "decision.cache_hit_rate", subsystem="core",
            description="epoch-memo decision replays over lookups, in [0, 1]",
            callback=lambda: self._memo.decision_stats.hit_rate if self._memo else 0.0,
        )
        obs.gauge(
            "admission.queue_depth", subsystem="service",
            description="requests waiting in the admission queue",
            callback=lambda: float(
                self.admission_queue.depth
                if self.admission_queue is not None
                else 0.0
            ),
        )

    def _register_server_gauges(self, server: VideoServer) -> None:
        """Per-server occupancy/load gauges (sampled, not hot-path)."""
        if not self._obs_enabled:
            return
        obs = self.obs
        labels = {"server": server.node_uid}
        obs.gauge(
            "server.cache_used_mb", subsystem="server", labels=labels,
            description="disk-cache bytes resident (MB)",
            callback=lambda s=server: s.array.used_mb,
        )
        obs.gauge(
            "server.cache_fraction", subsystem="server", labels=labels,
            description="disk-cache occupancy over capacity, in [0, 1]",
            callback=lambda s=server: s.array.used_mb / s.array.total_capacity_mb,
        )
        obs.gauge(
            "server.active_streams", subsystem="server", labels=labels,
            description="streams currently sourced",
            callback=lambda s=server: float(s.admission.active_count),
        )
        obs.gauge(
            "server.stream_load", subsystem="server", labels=labels,
            description="stream-slot occupancy, in [0, 1]",
            callback=lambda s=server: s.admission.load,
        )
        obs.gauge(
            "dma.points_table_size", subsystem="server", labels=labels,
            description="titles tracked in the DMA points table",
            callback=lambda s=server: float(_points_table_size(s)),
        )

    def _register_link_gauges(self, link: Link) -> None:
        """Per-link utilisation/reservation gauges (sampled)."""
        if not self._obs_enabled:
            return
        labels = {"link": link.name}
        self.obs.gauge(
            "link.utilization", subsystem="network", labels=labels,
            description="used over total bandwidth (eq. 5), in [0, 1]",
            callback=lambda l=link: l.utilization,
        )
        self.obs.gauge(
            "link.reserved_mbps", subsystem="network", labels=labels,
            description="bandwidth reserved by VoD flows (Mbps)",
            callback=lambda l=link: l.reserved_mbps,
        )

    # ------------------------------------------------------------------ #
    # initialisation phase
    # ------------------------------------------------------------------ #
    def attach_access_network(self, subnet: str, server_uid: str) -> None:
        """Declare that clients in ``subnet`` are adjacent to a server.

        Raises:
            ServiceError: If the server uid is unknown or the subnet is
                already attached elsewhere.
        """
        if server_uid not in self.servers:
            raise ServiceError(f"unknown server {server_uid!r}")
        existing = self._subnet_map.get(subnet)
        if existing is not None and existing != server_uid:
            raise ServiceError(
                f"subnet {subnet!r} is already attached to {existing!r}"
            )
        self._subnet_map[subnet] = server_uid

    def register_client(self, client: Client) -> str:
        """Register a client and resolve its home server from its address.

        Returns:
            The client's home server uid.
        """
        home_uid = client.resolve_home(self._subnet_map)
        self._clients[client.client_id] = client
        return home_uid

    def seed_title(self, server_uid: str, video: VideoTitle) -> None:
        """Initialisation-phase title load on one server.

        Raises:
            ServiceError: If the server uid is unknown.
        """
        server = self.servers.get(server_uid)
        if server is None:
            raise ServiceError(f"unknown server {server_uid!r}")
        server.seed_title(video)

    def start(self) -> None:
        """Begin periodic SNMP collection and telemetry sampling (call
        after initialisation)."""
        if not self._started:
            self.statistics.start()
            self.telemetry.start()
            if self.staleness_guard is not None:
                self.staleness_guard.start()
            self._started = True

    # ------------------------------------------------------------------ #
    # runtime expansion (the paper: "New nodes can easily be connected to
    # the network and the only thing that has to be changed is [the]
    # corresponding database entries")
    # ------------------------------------------------------------------ #
    def add_server(self, node: "Node", links: List[Link]) -> VideoServer:
        """Attach a new video-server node to the running service.

        Grows the topology, registers the database entries, spins up the
        node's video server and SNMP statistics module — after which the
        VRA routes to/through the newcomer like any other node.

        Args:
            node: The new network node.
            links: Links joining the newcomer to existing nodes (every
                link must have ``node`` as one endpoint).

        Returns:
            The newcomer's :class:`VideoServer`.

        Raises:
            ServiceError: If no links are given or a link does not touch
                the new node.
            TopologyError: For duplicate nodes/links or unknown far ends.
        """
        if not links:
            raise ServiceError(
                f"new server {node.uid!r} needs at least one link to join"
            )
        for link in links:
            if not link.touches(node.uid):
                raise ServiceError(
                    f"link {link.name!r} does not touch new node {node.uid!r}"
                )
        self.topology.add_node(node)
        for link in links:
            self.topology.add_link(link)
        server = self._join_server(node)
        if self.supervisor is not None or self.breakers is not None:
            server.on_state_change = self._on_server_state
        self._bump_availability()
        for link in links:
            self._join_link(link)
        self.statistics.add_node(node.uid)
        self.tracer.record(
            self.sim.now,
            "service.expanded",
            f"node {node.uid} ({node.name}) joined with "
            f"{len(links)} link(s)",
            node_uid=node.uid,
            links=[link.name for link in links],
        )
        return server

    def _join_server(self, node: Node) -> VideoServer:
        """Build one node's video server and register it everywhere: the
        server map, the availability token, metrics and the database."""
        hardware = self._server_hardware(node.uid)
        server = VideoServer(
            node_uid=node.uid,
            database=self.database,
            disk_count=hardware["disk_count"],
            disk_capacity_mb=hardware["disk_capacity_mb"],
            cluster_mb=self.config.cluster_mb,
            max_streams=hardware["max_streams"],
            pin_seeded=self.config.pin_seeded_titles,
            placement=self.config.placement,
        )
        self.servers[node.uid] = server
        server.on_availability_change = self._bump_availability
        server.attach_metrics(self.obs)
        self._register_server_gauges(server)
        self.database.register_server(
            ServerEntry(
                server_uid=node.uid,
                disk_count=hardware["disk_count"],
                disk_capacity_mb=hardware["disk_capacity_mb"],
                cache_capacity_mb=hardware["disk_count"] * hardware["disk_capacity_mb"],
                max_streams=hardware["max_streams"],
            )
        )
        return server

    def _join_link(self, link: Link) -> None:
        """Register one link's database entry and gauges."""
        self.database.register_link(
            LinkEntry(
                link_name=link.name,
                endpoints=link.endpoints,
                total_bandwidth_mbps=link.capacity_mbps,
            )
        )
        self._register_link_gauges(link)

    # ------------------------------------------------------------------ #
    # request path (the web module behaviour)
    # ------------------------------------------------------------------ #
    def submit(
        self,
        client: Union[Client, str],
        title_id: str,
    ) -> Tuple[VideoRequest, StreamingSession, Process]:
        """Place a video request on behalf of a client.

        The home server is resolved from the client's address (the paper's
        "Get the IP address of the client placing the video request"),
        the DMA pass runs on the home server, and a streaming session
        process is scheduled.  The session starts at the next simulation
        tick; run the simulator to drive it.

        Args:
            client: A registered :class:`Client` or its client_id.
            title_id: The requested title; must exist in the catalog.

        Returns:
            (request, session, process) — the process finishes when the
            last cluster is delivered.

        Raises:
            ServiceError: For unknown clients or titles.
        """
        client_obj = self._resolve_client(client)
        home_uid = client_obj.resolve_home(self._subnet_map)
        return self._submit_at(home_uid, title_id, client_obj.client_id)

    def request_by_home(
        self, home_uid: str, title_id: str, client_id: str = "anonymous"
    ) -> Tuple[VideoRequest, StreamingSession, Process]:
        """Place a request directly at a home server (experiment harness)."""
        if home_uid not in self.servers:
            raise ServiceError(f"unknown server {home_uid!r}")
        return self._submit_at(home_uid, title_id, client_id)

    @property
    def vra(self):
        """The server-selection policy: the built-in
        :class:`VirtualRoutingAlgorithm`, or whatever was assigned over it
        (``service.vra = MinHopSelection(service.topology)``)."""
        return self._vra

    @vra.setter
    def vra(self, policy) -> None:
        # The memo's token covers the built-in VRA's inputs; it says
        # nothing about a substitute's (RandomSelection draws from an
        # RNG), so a replaced policy always runs unmemoized; restoring the
        # built-in one re-attaches its memo.
        self._vra = policy
        self._memo = policy.cache if policy is self._builtin_vra else None
        if self._memo is not None:
            self._memo.seen = -1  # re-read the token before any replay

    def decide(self, home_uid: str, title_id: str) -> VraDecision:
        """One VRA decision for a request at ``home_uid`` (no streaming).

        While the memo's token is unchanged, every input of this pair's
        previous decision (holder list, poll answers, LVN weights,
        topology) is provably unchanged, so the stored decision is
        returned without re-entering the VRA.  The token itself is read
        only when the input clock moved: a replay is one int compare and
        one dict probe (DESIGN.md §5b.14).
        """
        memo = self._memo
        if memo is not None:
            if self._clock.value != memo.seen:
                memo.current()
            decision = memo.decisions.get((home_uid, title_id))
            if decision is not None:
                memo.decision_stats.hits += 1
                if self._replays_watched:  # instruments read as if the VRA ran
                    if self._obs_enabled:
                        self._m_decision_hits.inc()
                        self._vra.count_replayed(decision)
                    if self.tracer.enabled:
                        self._trace_decision(home_uid, title_id, decision)
                return decision
            memo.decision_stats.misses += 1
            self._m_decision_misses.inc()
        # Full holders only: a server advertising a prefix fraction
        # cannot source a whole remote stream, so the VRA prefers
        # full holders by construction.
        holders = self.database.servers_with_title(title_id, min_fraction=1.0)
        if self.breakers is not None:
            # Server-breaker transitions bump the availability version,
            # staling the token.
            holders = self.breakers.filter_servers(holders)
        decision = self._vra.decide(
            home_uid,
            title_id,
            holders,
            poll=lambda uid: self.servers[uid].can_provide(title_id),
        )
        if (
            self.staleness_guard is not None
            and self.staleness_guard.degraded
            and not decision.degraded
        ):
            # Stamped outside the VRA; the memo stores the marked one
            # (safe: every stale-set flip bumps the link-stats version,
            # which moves the token).
            decision = replace(decision, degraded=True)
        if memo is not None:
            # Errors never get here, so they are never stored.
            memo.decisions[(home_uid, title_id)] = decision
        if self.tracer.enabled:
            self._trace_decision(home_uid, title_id, decision)
        return decision

    def _close_span(self, span: SessionSpan, status: str) -> None:
        """Finish a span and hand it to the streaming hook, if installed."""
        span.finish(self.sim.now, status)
        if self.on_span_finished is not None:
            self.on_span_finished(span)

    def _trace_decision(
        self, home_uid: str, title_id: str, decision: VraDecision
    ) -> None:
        self.tracer.record(
            self.sim.now,
            "vra.decision",
            f"{title_id} at {home_uid}: chose {decision.chosen_uid} "
            f"via {decision.path.as_label()} (cost {decision.cost:.4f})",
            home_uid=home_uid,
            title_id=title_id,
            chosen_uid=decision.chosen_uid,
            cost=decision.cost,
            served_locally=decision.served_locally,
        )

    def _bump_availability(self) -> None:
        """A server's poll-answer inputs moved; this moves the memo token."""
        self._availability_version += 1
        self._clock.value += 1

    # ------------------------------------------------------------------ #
    # resilience-layer fan-out (wired only when a knob is on)
    # ------------------------------------------------------------------ #
    def _on_server_state(self, server: VideoServer) -> None:
        """A server flipped online: preempt its sessions, feed its breaker."""
        if self.supervisor is not None:
            self.supervisor.on_server_state(server)
        if self.breakers is not None and not server.online:
            self.breakers.server_failure(server.node_uid)

    def _on_link_state(self, link: Link) -> None:
        """A link flipped online: preempt path users, feed its breaker."""
        if self.supervisor is not None:
            self.supervisor.on_link_state(link)
        if self.breakers is not None and not link.online:
            self.breakers.link_failure(link.name)

    def _on_breaker_transition(
        self, kind: str, target: str, old: str, new: str
    ) -> None:
        """Ride breaker transitions on the existing invalidation machinery.

        A server breaker changes holder filtering, which is exactly the
        class of change the availability version covers.  A link breaker
        changes that link's effective weight, which is exactly what a
        reported-stats write would — so it bumps the same version.
        """
        if kind == KIND_SERVER:
            self._bump_availability()
        elif self.config.use_reported_stats:
            self.database.touch_links([target])
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "breaker.transition",
                f"{kind} {target}: {old} -> {new}",
                kind=kind,
                target=target,
                old=old,
                new=new,
            )

    def _on_staleness_change(self, changed: List[str]) -> None:
        """Stale-set flips invalidate exactly the affected links' weights."""
        self.database.touch_links(changed)
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "snmp.staleness",
                f"{len(changed)} link(s) changed staleness",
                links=list(changed),
            )

    def try_decide(self, home_uid: str, title_id: str) -> DecideOutcome:
        """One VRA decision that degrades to an explicit outcome.

        Where :meth:`decide` raises, this returns a :class:`DecideOutcome`
        naming what is wrong — ``no-holder``, ``no-reachable-holder``
        (home server partitioned from every holder), or
        ``no-available-holder`` (every holder polled out).  Resilience
        tooling and operators poll this instead of catching exceptions;
        non-ok outcomes land on the ``resilience.degraded_decisions``
        counter and in the trace.
        """
        try:
            return DecideOutcome(DECIDE_OK, decision=self.decide(home_uid, title_id))
        except TitleUnavailableError as exc:
            outcome, reason = NO_HOLDER, str(exc)
        except NoReachableHolderError as exc:
            outcome, reason = NO_REACHABLE_HOLDER, str(exc)
        except RoutingError as exc:
            outcome, reason = NO_AVAILABLE_HOLDER, str(exc)
        self._m_degraded.inc()
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "vra.degraded",
                f"{title_id} at {home_uid}: {outcome}",
                home_uid=home_uid,
                title_id=title_id,
                outcome=outcome,
            )
        return DecideOutcome(outcome, reason=reason)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def routing_epoch(self) -> Tuple[str, int, int]:
        """Cheap version token over every VRA routing input.

        The token changes whenever a decision could differ from the
        previous one: on the paper-faithful path (``use_reported_stats``)
        that is a limited-access database write (one bump per SNMP round
        or admin update — read "moved / did not move", nothing else) or a
        structural change (link online/offline, runtime expansion); on
        the ground-truth path it also tracks every link-usage mutation.
        Equal tokens guarantee bit-identical LVN tables and Dijkstra
        trees: it is the memo token's routing part (less the node-load
        extension's availability counter).
        """
        if self.config.use_reported_stats:
            return (
                "db",
                self.database.link_stats_version,
                self.topology.state_version,
            )
        return (
            "net",
            self.topology.traffic_version,
            self.topology.state_version,
        )

    def snapshot(self) -> Dict[str, object]:
        """One-call operational snapshot of the running service.

        Includes the epoch memo's counters — table/tree under
        ``routing_cache``, decision replays under ``decision_cache`` (both
        None when the memo is off) — so operators (and the benchmark
        reports) can see how often the VRA actually recomputed.  Also
        records the snapshot into the event trace when tracing is enabled.
        """
        memo = self._memo
        cache_dict = memo.stats.as_dict() if memo else None
        snapshot: Dict[str, object] = {
            "time": self.sim.now,
            "server_count": len(self.servers),
            "link_count": self.topology.link_count,
            "session_count": len(self.sessions),
            "completed_sessions": len(self.completed_sessions()),
            "active_flows": self.flows.active_count,
            "vra_decisions": getattr(self.vra, "decision_count", 0),
            "routing_epoch": self.routing_epoch(),
            "routing_cache": cache_dict,
            "decision_cache": memo.decision_stats.as_dict() if memo else None,
            "admission_queue": (
                self.admission_queue.snapshot()
                if self.admission_queue is not None
                else None
            ),
        }
        cache_label = f"cache {cache_dict['hit_rate']:.2%} hit rate" if memo else "cache off"
        self.tracer.record(
            self.sim.now,
            "service.snapshot",
            f"{snapshot['vra_decisions']} decision(s), {cache_label}",
            **{k: v for k, v in snapshot.items() if k != "time"},
        )
        return snapshot

    def completed_sessions(self) -> List[SessionRecord]:
        """Finished session records (completed or failed)."""
        return [record for record in self.sessions if record.request.finished]

    def title_video(self, title_id: str) -> VideoTitle:
        """Reconstruct the storage-layer video object from the catalog."""
        info = self.database.title_info(title_id)
        return VideoTitle(
            title_id=info.title_id,
            name=info.name,
            size_mb=info.size_mb,
            duration_s=info.duration_s,
            bitrate_mbps=info.bitrate_mbps,
        )

    # ------------------------------------------------------------------ #
    def _submit_at(
        self, home_uid: str, title_id: str, client_id: str
    ) -> Tuple[VideoRequest, StreamingSession, Process]:
        video = self.title_video(title_id)
        request = VideoRequest(
            request_id=next(self._request_ids),
            client_id=client_id,
            home_uid=home_uid,
            title_id=title_id,
            submitted_at=self.sim.now,
        )
        home_server = self.servers[home_uid]
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "request.submitted",
                f"{client_id} at {home_uid} requests {title_id}",
                client_id=client_id,
                home_uid=home_uid,
                title_id=title_id,
            )
        dma_result = home_server.on_download_begins(video)
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "placement.pass",
                f"{home_uid}: {title_id} -> {dma_result.action.value} "
                f"(points {dma_result.points}, evicted {list(dma_result.evicted)})",
                home_uid=home_uid,
                title_id=title_id,
                action=dma_result.action.value,
                points=dma_result.points,
                evicted=list(dma_result.evicted),
                resident_fraction=dma_result.resident_fraction,
            )
        dma_stored = dma_result.cached and dma_result.action.value != "hit"
        self._m_requests.inc()
        span: Optional[SessionSpan] = None
        if self._obs_enabled:
            span = SessionSpan(
                request_id=request.request_id,
                client_id=client_id,
                title_id=title_id,
                home_uid=home_uid,
                started_at=self.sim.now,
            )
            self.spans.append(span)
            span.add(
                self.sim.now,
                "submitted",
                dma_action=dma_result.action.value,
                dma_points=dma_result.points,
            )
        observer = _RequestObserver(self, span, home_server, dma_stored)
        session = self._build_session(request, video, observer)
        self.sessions.append(session.record)

        # What can be settled at submit is settled here; the rest runs in
        # the request's one process (_admit), named after how it began.
        # The load-leveling queue sits *before* the strict-QoS decision so
        # an overload sheds cheaply instead of paying a VRA run per doomed
        # request; a zero-wait slot is exactly the no-queue path.
        name = f"session:{client_id}:{title_id}"
        wait_s, refusal = 0.0, None
        slot = (
            self.admission_queue.offer(self.sim.now, (home_uid, title_id))
            if self.admission_queue is not None
            else None
        )
        if slot is not None and slot.shed:
            name = f"shed:{request.request_id}"
            self._reject(
                request, observer,
                f"admission-shed: queue full ({slot.depth} waiting)",
                "request.shed", depth=slot.depth,
            )
        elif slot is not None and slot.wait_s > 0.0:
            name = f"queued:{request.request_id}"
            wait_s = session.record.admission_wait_s = slot.wait_s
            if self.tracer.enabled:
                self.tracer.record(
                    self.sim.now,
                    "request.queued",
                    f"{client_id} at {home_uid}: {title_id} admission "
                    f"delayed {wait_s:.3f}s ({slot.depth} ahead)",
                    client_id=client_id,
                    home_uid=home_uid,
                    title_id=title_id,
                    wait_s=wait_s,
                    depth=slot.depth,
                )
            if span is not None:
                span.add(
                    self.sim.now, "queued",
                    wait_s=wait_s, admit_at=slot.admit_at, depth=slot.depth,
                )
        else:
            refusal = self._qos_refusal(home_uid, title_id, video)
            if refusal is not None and self.config.requeue_attempts > 0:
                name = f"requeued:{request.request_id}"
            elif refusal is not None:
                name = f"blocked:{request.request_id}"
                self._m_blocked.inc()
                self._reject(request, observer, refusal, "request.blocked")
        process = Process(
            self.sim, self._admit(session, observer, video, wait_s, refusal), name=name
        )
        return request, session, process

    def _admit(
        self, session: StreamingSession, observer: "_RequestObserver",
        video: VideoTitle, wait_s: float, refusal: Optional[str],
    ) -> Generator[Any, None, SessionRecord]:
        """The one process of a request: the admission-queue wait, the
        strict-QoS re-queue loop, then the stream itself.

        A request :meth:`_submit_at` already rejected (shed, or blocked
        with no re-queue budget) ends on the process's first step.
        ``refusal`` is the submit-time strict-QoS verdict; a queued
        request is checked at *admit* time instead — by then the flash
        crowd ahead of it has been leveled, so the check sees the state
        the session will start under.  A refused request waits
        ``requeue_delay_s`` and re-checks, up to ``requeue_attempts``
        times (holders flapping back online usually re-admit it early),
        before it fails with the ``qos-blocked:`` reason.
        """
        request = session.record.request
        if request.finished:
            return session.record
        home_uid, title_id = request.home_uid, request.title_id
        if wait_s > 0.0:
            yield Delay(wait_s)
            self.admission_queue.release()
            refusal = self._qos_refusal(home_uid, title_id, video)
        attempts = self.config.requeue_attempts
        attempt = 0
        while refusal is not None and attempt < attempts:
            attempt += 1
            self._m_requeues.inc()
            if self.tracer.enabled:
                self.tracer.record(
                    self.sim.now,
                    "request.requeued",
                    f"{request.client_id} at {home_uid}: "
                    f"{title_id} re-queued ({attempt}/{attempts})",
                    client_id=request.client_id,
                    home_uid=home_uid,
                    title_id=title_id,
                    attempt=attempt,
                )
            if observer.span is not None:
                observer.span.add(
                    self.sim.now, "requeued",
                    attempt=attempt, delay_s=self.config.requeue_delay_s,
                )
            yield Delay(self.config.requeue_delay_s)
            refusal = self._qos_refusal(home_uid, title_id, video)
        if refusal is not None:
            self._m_blocked.inc()
            self._reject(request, observer, refusal, "request.blocked")
            return session.record
        return (yield from session.run())

    def _reject(
        self, request: VideoRequest, observer: "_RequestObserver",
        reason: str, category: str, **data: object,
    ) -> None:
        """End a request before its stream starts (shed, or strict-QoS
        blocked): fail it with ``reason``, count it finished, close its
        span, write the ``category`` trace row and abort the DMA download
        its submit began."""
        request.mark_failed(reason)
        self._sessions_finished += 1
        if observer.span is not None:
            self._close_span(observer.span, request.status.value)
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                category,
                f"{request.client_id} at {request.home_uid}: "
                f"{request.title_id} {reason}",
                client_id=request.client_id,
                home_uid=request.home_uid,
                title_id=request.title_id,
                **data,
            )
        if observer.dma_stored:
            observer.home_server.abort_download(request.title_id)

    def _build_session(
        self, request: VideoRequest, video: VideoTitle, observer: "_RequestObserver"
    ) -> StreamingSession:
        """The fully wired streaming session for a request."""
        home_uid, title_id = request.home_uid, request.title_id
        decide = lambda: self.decide(home_uid, title_id)  # noqa: E731
        if self.decide_wrapper is not None:
            decide = self.decide_wrapper(decide)
        if observer.span is not None:
            # Wrap *outside* decide_wrapper so the span sees the decision
            # the session actually uses (e.g. NeverSwitch's frozen one).
            decide = self._span_decide(decide, observer.span)
        decide_for_cluster = None
        if self.config.placement.fractional:
            # Prefix-serving fast path: while a requested cluster is
            # resident on the home server's healthy disks and a stream
            # slot is free, serve it locally; the VRA routes the suffix.
            decide_for_cluster = self._prefix_cluster_decider(
                home_uid, title_id, decide
            )

        return StreamingSession(
            sim=self.sim,
            request=request,
            video=video,
            cluster_mb=self.config.cluster_mb,
            decide=decide,
            flows=self.flows,
            servers=self.servers,
            decide_for_cluster=decide_for_cluster,
            local_read_mbps=self.config.local_read_mbps,
            rate_update_period_s=self.config.rate_update_period_s,
            retry=self._retry_policy,
            failover=self.supervisor,
            observer=observer,
        )

    def _prefix_cluster_decider(
        self,
        home_uid: str,
        title_id: str,
        decide: Callable[[], VraDecision],
    ) -> Callable[[int], VraDecision]:
        """Per-cluster decision function for fractional placements: local
        serve while the cluster is resident at home, VRA otherwise."""

        def decide_cluster(cluster_index: int) -> VraDecision:
            home = self.servers[home_uid]
            # serves_segment excludes a full store whose download is still
            # in flight (pending advertisement): those bytes arrive via
            # this very session, so they cannot source it.
            if (
                home.online
                and home.admission.has_capacity
                and home.serves_segment(title_id)
                and home.array.cluster_servable(title_id, cluster_index)
            ):
                return VraDecision(
                    title_id=title_id,
                    home_uid=home_uid,
                    chosen_uid=home_uid,
                    served_locally=True,
                    path=Path(nodes=(home_uid,), cost=0.0),
                )
            return decide()

        return decide_cluster

    def _span_decide(
        self, decide: Callable[[], VraDecision], span: SessionSpan
    ) -> Callable[[], VraDecision]:
        """Record each per-cluster VRA decision into the session span."""

        def wrapped() -> VraDecision:
            decision = decide()
            span.add(
                self.sim.now,
                "vra.decision",
                chosen_uid=decision.chosen_uid,
                cost=decision.cost,
                served_locally=decision.served_locally,
                epoch=list(self.routing_epoch()),
            )
            return decision

        return wrapped

    def _qos_refusal(
        self, home_uid: str, title_id: str, video: VideoTitle
    ) -> Optional[str]:
        """Strict-QoS check: None when the request may start (always,
        unless ``strict_qos_admission``), else its ``qos-blocked:`` reason.

        Local serves always pass; remote candidates are checked against
        the current spare capacity along their least-cost paths.  When
        the VRA finds no source at all (every holder polled out, or the
        home partitioned from them) the reason carries the VRA's message.
        """
        if not self.config.strict_qos_admission:
            return None
        try:
            decision = self.decide(home_uid, title_id)
        except ReproError as exc:
            return f"qos-blocked: {exc}"
        if decision.served_locally:
            return None
        paths = decision.candidate_paths or {decision.chosen_uid: decision.path}
        rate = video.bitrate_mbps
        if any(self.flows.path_fits(path.nodes, rate) for path in paths.values()):
            return None
        return f"qos-blocked: no candidate path can sustain {rate:.2f} Mbps"

    def _server_hardware(self, node_uid: str) -> Dict[str, float]:
        """Effective hardware knobs for one node (uniform + overrides).

        Raises:
            ServiceError: If an override names an unknown knob.
        """
        hardware = {
            "disk_count": self.config.disk_count,
            "disk_capacity_mb": self.config.disk_capacity_mb,
            "max_streams": self.config.max_streams,
        }
        overrides = self.config.server_overrides.get(node_uid, {})
        unknown = set(overrides) - set(hardware)
        if unknown:
            raise ServiceError(
                f"unknown server override(s) for {node_uid!r}: {sorted(unknown)}"
            )
        hardware.update(overrides)
        hardware["disk_count"] = int(hardware["disk_count"])
        hardware["max_streams"] = int(hardware["max_streams"])
        return hardware

    def _resolve_client(self, client: Union[Client, str]) -> Client:
        if isinstance(client, Client):
            if client.client_id not in self._clients:
                raise ServiceError(
                    f"client {client.client_id!r} is not registered"
                )
            return client
        try:
            return self._clients[client]
        except KeyError:
            raise ServiceError(f"unknown client {client!r}") from None

    def _reported_used(self, link: Link) -> float:
        """Used bandwidth as last written by the SNMP statistics modules."""
        return self.database.link_entry(link.name).used_mbps

    def _guarded_used(self, link: Link) -> float:
        """Reported used bandwidth through the resilience interposers.

        An open link breaker makes the link look saturated (still
        routable — Dijkstra only deprioritises it); a stale sample keeps
        only ``1/factor`` of its reported headroom.  Links that are
        neither return the plain reported figure, bit-for-bit.
        """
        if self.breakers is not None and self.breakers.link_open(link.name):
            return link.capacity_mbps
        used = self.database.link_entry(link.name).used_mbps
        if self.staleness_guard is not None:
            return self.staleness_guard.adjusted_used(link, used)
        return used

    def _server_load(self, node_uid: str) -> float:
        """Stream-slot occupancy of a node's server, in [0, 1].

        The node-load term for the server-configuration VRA extension: a
        server sourcing many streams makes its adjacent links look worse.
        """
        server = self.servers[node_uid]
        return server.admission.active_count / server.admission.max_streams
