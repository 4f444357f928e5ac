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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, Union

from repro.client.client import Client
from repro.client.requests import VideoRequest
from repro.core.admission_queue import (
    DEFAULT_ADMISSION_RATE_PER_S,
    DEFAULT_ADMISSION_TICK_S,
    AdmissionQueue,
)
from repro.core.decision import DecisionPipeline
from repro.core.lvn import DEFAULT_NORMALIZATION_CONSTANT
from repro.core.session import (
    ClusterRecord,
    DecideFn,
    SessionObserver,
    SessionRecord,
    StreamingSession,
)
from repro.core.vra import VirtualRoutingAlgorithm, VraDecision
from repro.database.records import LinkEntry, ServerEntry
from repro.database.store import ServiceDatabase
from repro.errors import ReproError, ServiceError
from repro.network.flows import FlowManager
from repro.network.link import Link
from repro.network.node import Node
from repro.network.topology import Topology
from repro.placement.base import PlacementConfig
from repro.obs.registry import MetricsRegistry
from repro.resilience.staleness import StalenessGuard
from repro.resilience.supervisor import SessionSupervisor
from repro.obs.sampler import TelemetrySampler
from repro.obs.spans import SessionSpan
from repro.server.video_server import VideoServer
from repro.sim.engine import Simulator
from repro.sim.process import Delay, Process
from repro.snmp.collector import DEFAULT_POLL_PERIOD_S, StatisticsService
from repro.storage.video import VideoTitle


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
            popularity-weighted partial caching, plus the prefix and
            partial policies' knobs (DESIGN.md X2).
        pin_seeded_titles: Seed-pinning extension: initialisation-phase
            titles are exempt from cache eviction so the DMA can never
            delete a title's last network-wide copy.  Default True — a
            deployable service needs it; set False for exact Figure 2
            behaviour (the hazard is pinned by a failure-injection test).
        compiled_routing: Put the VRA behind its epoch memo
            (:mod:`repro.network.routing.cache`).  ``False`` is the one
            reference path: every decision recomputes its LVN table and
            search, as in the paper's Figure 5.  Both run on the one
            routing kernel (:class:`~repro.network.compiled.TopologySnapshot`),
            and decisions are bit-for-bit identical either way (the
            memo-on vs memo-off suites pin it).  The name predates the
            single kernel; renaming it waits for a change that also
            updates the ledger, whose ``decision_burst`` oracle sets it.
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
            up to this many times instead of failing instantly, waiting
            20 s and then twice the last wait, up to 300 s
            (:meth:`~repro.core.session.StreamingSession._decide_or_wait`).
            ``0`` (default) is the paper's fail-fast behaviour,
            byte-identical to pre-retry runs.
        session_failover: Mid-stream session failover
            (:class:`~repro.resilience.supervisor.SessionSupervisor`).
            Active transfer segments are indexed by their source server
            and path links; a fault on either (server crash, disk
            failure taking the title, path link offline) *preempts* the
            session immediately — it re-runs the VRA and migrates the
            remainder of the cluster to a surviving holder, parked on the
            change feed while holders exist but none is currently usable
            until an input that can end the outage moves.  A session
            fails only when no full copy of its title remains.  Default off —
            faults mid-transfer then play out exactly as before (the
            stream limps to the boundary or dies there).
        max_stats_age_s: Staleness guard over the SNMP-fed link stats
            (:class:`~repro.resilience.staleness.StalenessGuard`).  A
            link whose latest sample is older than this — e.g. during an
            ``SnmpBlackout`` — has its headroom shrunk four-fold in the
            LVN weights, and every decision taken while any link is
            stale is marked ``degraded``.  The guard re-checks every
            ``snmp_period_s``.  Requires ``use_reported_stats``.
            ``None`` (default) trusts samples of any age, as the paper
            does.
        observability: Enable the unified telemetry layer: a live
            metrics registry (per-link utilisation, cache occupancy,
            stream load, VRA decision counters, sim-engine gauges), a
            sim-time sampler writing gauge snapshots into the run's
            telemetry sink, and per-request session spans.  Default off
            — the disabled path routes every instrument call to shared
            no-ops (the enabled cost is the ledger's ``chaos_storm``
            workload, ``benchmarks/ledger/``).
        telemetry_period_s: Simulated seconds between telemetry samples
            (only meaningful with ``observability=True``).
    """

    cluster_mb: float = 64.0
    disk_count: int = 4
    disk_capacity_mb: float = 20_000.0
    max_streams: int = 32
    snmp_period_s: float = DEFAULT_POLL_PERIOD_S
    normalization_constant: float = DEFAULT_NORMALIZATION_CONSTANT
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
    session_failover: bool = False
    max_stats_age_s: Optional[float] = None
    observability: bool = False
    telemetry_period_s: float = 60.0
    #: Per-node hardware overrides ("we propose the use of as many disks
    #: as possible" — sites differ): node uid -> subset of
    #: {disk_count, disk_capacity_mb, max_streams}.  Unlisted nodes use
    #: the uniform values above.
    server_overrides: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("admission_queue_capacity", "retry_attempts"):
            if getattr(self, name) < 0:
                raise ServiceError(f"{name} must be >= 0, got {getattr(self, name)!r}")


class _RequestObserver(SessionObserver):
    """What one request's session tells the service: delivery and
    resilience counters, span events, and at the end
    the DMA commit or abort of the download its submit began."""

    __slots__ = ("service", "span", "home_server", "dma_stored")

    def __init__(self, service: "VoDService", home_server: VideoServer, dma_stored: bool):
        self.service = service
        #: The request's span, set at submit when observability is on.
        self.span: Optional[SessionSpan] = None
        self.home_server = home_server
        self.dma_stored = dma_stored

    def cluster(self, record: ClusterRecord) -> None:
        service = self.service
        service._m_clusters.inc()
        if record.switched:
            service._m_switches.inc()

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
            outcome = {"startup_s": record.startup_delay_s, "stall_s": record.stall_s}
        else:
            service._m_failed.inc()
            outcome = {"reason": record.request.failure_reason}
        service._sessions_finished += 1
        if self.span is not None:
            service._close_span(self.span, record.request.status.value, **outcome)


class VoDService:
    """The distributed VoD service over one topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        topology.validate()
        self.sim = sim
        self.topology = topology
        self.config = config if config is not None else ServiceConfig()
        #: The telemetry instrument registry.  Disabled (all no-ops)
        #: unless ``config.observability`` is set or an enabled registry
        #: is passed in explicitly.
        self.obs = (
            registry
            if registry is not None
            else MetricsRegistry(enabled=self.config.observability)
        )
        #: Whether anything reads the instruments: a memo replay feeds
        #: only its hit counter when this is off.
        self._obs_enabled = self.obs.enabled
        #: The session spans still open, by request id (populated only
        #: when observability is on).  A span leaves when it closes, as a
        #: ``span`` row written into ``telemetry.sink``.
        self.open_spans: Dict[int, SessionSpan] = {}
        #: Numbers the requests this service creates: 1, 2, ...
        self._request_ids = itertools.count(1)
        #: Every decision input publishes here (DESIGN.md §5b.14).
        self._feed = topology.feed
        self.database = ServiceDatabase(self._feed)
        self.flows = FlowManager(topology)
        self._subnet_map: Dict[str, str] = {}
        self._clients: Dict[str, Client] = {}
        self.sessions: List[SessionRecord] = []
        #: How many requests in ``sessions`` are terminal: bumped where a
        #: request ends (the session observer's ``finish``, ``_reject``)
        #: so the ``service.sessions_active`` gauge is counted, not scanned.
        self._sessions_finished = 0
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
                check_period_s=self.config.snmp_period_s,
            )
            if self._obs_enabled:
                self.obs.gauge(
                    "snmp.stale_links", subsystem="snmp",
                    description="links whose latest SNMP sample is age-expired",
                    callback=lambda: float(self.staleness_guard.stale_count),
                )
        # On the reported-stats path the staleness guard interposes on the
        # used-bandwidth reads; without it the plain reader keeps the
        # default path byte-identical.
        used_of: Optional[Callable[[Link], float]] = None
        if self.config.use_reported_stats:
            guarded = self.staleness_guard is not None
            used_of = self._guarded_used if guarded else self._reported_used
        vra = VirtualRoutingAlgorithm(
            topology,
            used_of=used_of,
            normalization_constant=self.config.normalization_constant,
            node_load=self._server_load if self.config.use_server_load_in_vra else None,
            memo=self.config.compiled_routing,
            metrics=self.obs,
        )
        #: What ``decide`` runs (DESIGN.md §5b.14).
        self._pipeline = DecisionPipeline(
            vra, self.database, self.servers, self.config,
            self.staleness_guard, self._feed, self.obs,
        )
        #: ``decide(home_uid, title_id[, cluster])``: one VRA decision (no
        #: streaming), replayed until a publish of one of its inputs.
        self.decide: Callable[..., VraDecision] = self._pipeline.decide
        #: Mid-stream failover supervisor; None when off.
        self.supervisor: Optional[SessionSupervisor] = None
        if self.config.session_failover:
            self.supervisor = SessionSupervisor(
                sim,
                self.servers,
                self.database,
                self._pipeline.holders_of,
                registry=self.obs,
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
        #: Its ``sink`` is the run's one telemetry sink.
        self.telemetry = TelemetrySampler(
            sim, self.obs, period_s=self.config.telemetry_period_s
        )
        self._started = False
        #: Optional per-session wrapper around the decide function, used by
        #: the switching baselines (e.g. ``NeverSwitch``): called once per
        #: session with the fresh per-cluster decide closure, returns the
        #: one to use.
        self.decide_wrapper: Optional[Callable[[DecideFn], DecideFn]] = None

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
            callback=lambda: memo.stats.hit_rate if (memo := self._pipeline.memo) else 0.0,
        )
        obs.gauge(
            "decision.cache_hit_rate", subsystem="core",
            description="epoch-memo decision replays over lookups, in [0, 1]",
            callback=lambda: memo.decision_stats.hit_rate if (memo := self._pipeline.memo) else 0.0,
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
            callback=lambda s=server: float(len(s.policy.tracker)),
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
        for link in links:
            self._join_link(link)
        self.statistics.add_node(node.uid)
        return server

    def _join_server(self, node: Node) -> VideoServer:
        """Build one node's video server and register it everywhere: the
        server map, metrics and the database."""
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
        return self._pipeline.vra

    @vra.setter
    def vra(self, policy) -> None:
        self._pipeline.use(policy)
        self.decide = self._pipeline.decide

    def _close_span(self, span: SessionSpan, status: str, **outcome: object) -> None:
        """Finish a span with its request's ``status`` and ``outcome`` (the
        failure reason, or a completed stream's startup and stall) and
        write it, as its ``span`` row, into the run's sink; the service
        keeps nothing of it."""
        span.finish(self.sim.now, status, **outcome)
        self.open_spans.pop(span.record.request.request_id, None)
        self.telemetry.sink.write({"kind": "span", **span.to_dict()})

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
        trees: its counters are kinds the memo's full flush subscribes
        to (as is, under the node-load extension, availability).
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
        dma_result = home_server.on_download_begins(video)
        dma_stored = dma_result.cached and dma_result.action.value != "hit"
        self._m_requests.inc()
        observer = _RequestObserver(self, home_server, dma_stored)
        session = self._build_session(request, video, observer)
        self.sessions.append(session.record)
        span: Optional[SessionSpan] = None
        if self._obs_enabled:
            span = observer.span = SessionSpan(session.record)
            self.open_spans[request.request_id] = span
            span.add(
                self.sim.now,
                "submitted",
                dma_action=dma_result.action.value,
                dma_points=dma_result.points,
                dma_evicted=list(dma_result.evicted),
                dma_resident_fraction=dma_result.resident_fraction,
            )

        # What can be settled at submit is settled here; the rest runs in
        # the request's one process (_admit), named after how it began.
        # The load-leveling queue sits *before* the strict-QoS decision so
        # an overload sheds cheaply instead of paying a VRA run per doomed
        # request; a zero-wait slot is exactly the no-queue path.
        name = f"session:{client_id}:{title_id}"
        wait_s = 0.0
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
            )
        elif slot is not None and slot.wait_s > 0.0:
            name = f"queued:{request.request_id}"
            wait_s = session.record.admission_wait_s = slot.wait_s
            if span is not None:
                span.add(
                    self.sim.now, "queued",
                    wait_s=wait_s, admit_at=slot.admit_at, depth=slot.depth,
                )
        else:
            refusal = self._qos_refusal(home_uid, title_id, video)
            if refusal is not None:
                name = f"blocked:{request.request_id}"
                self._m_blocked.inc()
                self._reject(request, observer, refusal)
        process = Process(
            self.sim, self._admit(session, observer, video, wait_s), name=name
        )
        return request, session, process

    def _admit(
        self, session: StreamingSession, observer: "_RequestObserver",
        video: VideoTitle, wait_s: float,
    ) -> Generator[Any, None, SessionRecord]:
        """The one process of a request: the admission-queue wait, then
        the stream itself.

        A request :meth:`_submit_at` already rejected (shed, or blocked)
        ends on the process's first step.  A queued request is checked
        for strict QoS at *admit* time instead of at submit — by then the
        flash crowd ahead of it has been leveled, so the check sees the
        state the session will start under — and a refused one fails
        with the ``qos-blocked:`` reason.
        """
        request = session.record.request
        if request.finished:
            return session.record
        if wait_s > 0.0:
            yield Delay(wait_s)
            self.admission_queue.release()
            refusal = self._qos_refusal(request.home_uid, request.title_id, video)
            if refusal is not None:
                self._m_blocked.inc()
                self._reject(request, observer, refusal)
                return session.record
        return (yield from session.run())

    def _reject(
        self, request: VideoRequest, observer: "_RequestObserver", reason: str
    ) -> None:
        """End a request before its stream starts (shed, or strict-QoS
        blocked): fail it with ``reason``, count it finished, close its
        span and abort the DMA download its submit began."""
        request.mark_failed(reason)
        self._sessions_finished += 1
        if observer.span is not None:
            self._close_span(observer.span, request.status.value, reason=reason)
        if observer.dma_stored:
            observer.home_server.abort_download(request.title_id)

    def _build_session(
        self, request: VideoRequest, video: VideoTitle, observer: "_RequestObserver"
    ) -> StreamingSession:
        """The fully wired streaming session for a request."""
        home_uid, title_id = request.home_uid, request.title_id
        decide = lambda cluster: self.decide(home_uid, title_id, cluster)  # noqa: E731
        if self.decide_wrapper is not None:
            decide = self.decide_wrapper(decide)
        if self._obs_enabled:
            # Wrap *outside* decide_wrapper so the span sees the decision
            # the session actually uses (e.g. NeverSwitch's frozen one).
            decide = self._span_decide(decide, observer)
        return StreamingSession(
            sim=self.sim,
            request=request,
            video=video,
            cluster_mb=self.config.cluster_mb,
            decide=decide,
            flows=self.flows,
            servers=self.servers,
            retry_attempts=self.config.retry_attempts,
            failover=self.supervisor,
            observer=observer,
        )

    def _span_decide(self, decide: DecideFn, observer: _RequestObserver) -> DecideFn:
        """Note each per-cluster VRA decision the session uses on the
        request's span, as one tuple (its cluster columns come from the
        session record when the span row is written)."""

        def wrapped(cluster: int) -> VraDecision:
            decision = decide(cluster)
            span = observer.span
            span.decisions.append((
                len(span.record.clusters), decision.cost, decision.served_locally,
                self.routing_epoch(),
            ))
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
        """Reported used bandwidth through the staleness guard: a stale
        sample keeps only ``1/factor`` of its reported headroom; a fresh
        one returns the plain reported figure, bit-for-bit."""
        used = self.database.link_entry(link.name).used_mbps
        return self.staleness_guard.adjusted_used(link, used)

    def _server_load(self, node_uid: str) -> float:
        """Stream-slot occupancy of a node's server, in [0, 1].

        The node-load term for the server-configuration VRA extension: a
        server sourcing many streams makes its adjacent links look worse.
        """
        server = self.servers[node_uid]
        return server.admission.active_count / server.admission.max_streams
