"""Per-cluster streaming with dynamic server switching.

The paper: "If the optimal server remains the same for as long as the first
cluster of the video is downloaded and played, then the second cluster is
requested from the same server.  If the optimal server changes due to the
change of certain network features during the downloading of a certain
cluster, then the next cluster will be requested by the new optimal server."

:class:`StreamingSession` implements exactly that loop as a simulation
process: before every cluster it re-runs the VRA, switches source servers
when the decision changes, reserves bandwidth along the chosen path for the
cluster transfer, and keeps playback-continuity bookkeeping (startup delay,
stalls) so the QoS effect of switching is measurable.

The generator wakes once per cluster segment, not once per rate-update
step: it yields a :class:`_Transfer`, which steps itself on the engine
(release, measure the path, reserve what it offers, sleep up to
``rate_update_period_s``) and resumes the session only when the segment is
delivered or a failover supervisor preempted it (DESIGN.md §5b.11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # runtime coupling stays duck-typed (tests pass fakes)
    from repro.resilience.supervisor import SessionSupervisor as FailoverControl

from repro.client.requests import VideoRequest
from repro.core.vra import VraDecision
from repro.errors import LinkCapacityError, ReproError, RoutingError, SchedulingError
from repro.network.flows import FlowManager
from repro.server.video_server import VideoServer
from repro.sim.engine import EventHandle, Simulator
from repro.sim.process import Delay, Park, Process
from repro.storage.striping import cluster_sizes
from repro.storage.video import VideoTitle

#: Disk-read rate used for home-server (zero-hop) transfers, Mbps.
DEFAULT_LOCAL_READ_MBPS = 100.0

#: Floor transfer rate when a path is badly congested, so a session always
#: makes progress (the QoS violation is still recorded).
MIN_TRANSFER_MBPS = 0.05

#: How often an in-flight cluster transfer re-evaluates its achievable
#: rate.  The paper's network is best-effort: background traffic rising
#: mid-transfer slows the transfer down (and falling traffic speeds it
#: back up to the playback rate).  Server switching still happens only at
#: cluster boundaries, exactly as the paper prescribes.
DEFAULT_RATE_UPDATE_PERIOD_S = 60.0

DecideFn = Callable[[], VraDecision]

_INF = float("inf")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for cluster-boundary VRA failures.

    When a per-cluster decision raises a :class:`RoutingError` (every
    holder crashed, the home server is partitioned, admission slots are
    exhausted network-wide), the session waits ``backoff_s`` of simulated
    time and retries, doubling up to ``max_backoff_s``, at most
    ``attempts`` times per cluster.  ``attempts=0`` (the default) restores
    the fail-fast behaviour exactly — no extra events, no extra decide
    calls — which is what keeps fault-free runs byte-identical.

    Attributes:
        attempts: Maximum retries per cluster boundary (0 = disabled).
        backoff_s: First retry delay in simulated seconds.
        multiplier: Backoff growth factor between consecutive retries.
        max_backoff_s: Ceiling on any single retry delay.
        deadline_s: Cap on the *total* backoff a session may accumulate
            across all its cluster boundaries, so exponential backoff
            cannot exceed the session's overall slack.  The final wait
            is clipped to the remaining budget; a retry needed with no
            budget left re-raises instead of sleeping.  ``None`` (the
            default) keeps the attempt-count-only behaviour bit-for-bit.
    """

    attempts: int = 0
    backoff_s: float = 30.0
    multiplier: float = 2.0
    max_backoff_s: float = 300.0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.attempts < 0:
            raise ReproError(f"retry attempts must be >= 0, got {self.attempts!r}")
        if not (self.backoff_s > 0.0):
            raise ReproError(f"retry backoff must be positive, got {self.backoff_s!r}")
        if self.multiplier < 1.0:
            raise ReproError(
                f"retry multiplier must be >= 1, got {self.multiplier!r}"
            )
        if self.max_backoff_s < self.backoff_s:
            raise ReproError(
                f"max backoff {self.max_backoff_s!r} below initial "
                f"backoff {self.backoff_s!r}"
            )
        if self.deadline_s is not None and not (self.deadline_s > 0.0):
            raise ReproError(
                f"retry deadline must be positive, got {self.deadline_s!r}"
            )

    @property
    def enabled(self) -> bool:
        """True when the session should retry at all."""
        return self.attempts > 0


#: Shared disabled policy: the default fail-fast behaviour.
NO_RETRY = RetryPolicy()


@dataclass(frozen=True)
class ClusterRecord:
    """Delivery record of one cluster.

    Attributes:
        index: 0-based cluster index.
        server_uid: The server that sourced the cluster.
        path_nodes: Node path from home server to source (VRA direction).
        rate_mbps: Transfer rate actually achieved.
        start: Simulated time the transfer began.
        end: Simulated time the transfer finished.
        size_mb: Cluster size.
        switched: True when the source differs from the previous cluster's.
        qos_violated: True when the achieved rate fell below the title's
            playback bitrate.
    """

    index: int
    server_uid: str
    path_nodes: Tuple[str, ...]
    rate_mbps: float
    start: float
    end: float
    size_mb: float
    switched: bool
    qos_violated: bool


@dataclass
class SessionRecord:
    """Everything measured about one streaming session.

    Attributes:
        request: The originating request (status is kept up to date).
        clusters: Per-cluster delivery records, in order.
        startup_delay_s: First-cluster completion minus submission.
        stall_s: Total playback gap time after startup.
        switch_count: Number of mid-stream server changes.
        qos_violation_count: Clusters delivered below the playback rate.
        completed_at: Simulated completion time (None if failed/running).
        retry_count: Cluster-boundary VRA retries taken (retry policy).
        retry_wait_s: Total simulated time spent in retry backoff.
        recovered: True when at least one cluster boundary failed and a
            later retry found a source again (the resilience headline).
        admission_wait_s: Load-leveling delay assigned by the admission
            queue before the session started (0.0 when the queue is off
            or the request was admitted immediately).
        failover_count: Mid-stream migrations forced by a fault on the
            serving server or delivery path (session supervisor).
        failover_stall_s: Total simulated time spent between a fault
            preempting a transfer segment and the replacement decision.
    """

    request: VideoRequest
    clusters: List[ClusterRecord] = field(default_factory=list)
    startup_delay_s: float = 0.0
    stall_s: float = 0.0
    switch_count: int = 0
    qos_violation_count: int = 0
    completed_at: Optional[float] = None
    retry_count: int = 0
    retry_wait_s: float = 0.0
    recovered: bool = False
    admission_wait_s: float = 0.0
    failover_count: int = 0
    failover_stall_s: float = 0.0

    @property
    def servers_used(self) -> List[str]:
        """Distinct source servers, in first-use order."""
        seen: List[str] = []
        for record in self.clusters:
            if record.server_uid not in seen:
                seen.append(record.server_uid)
        return seen

    @property
    def completed(self) -> bool:
        """True once every cluster was delivered."""
        return self.completed_at is not None


class SessionObserver:
    """What a running session reports back; every method here is a no-op.

    A listener subclasses it and overrides what it needs (the service keeps
    one per request).  :data:`NO_OBSERVER` is the default, so the session
    never checks for None.
    """

    __slots__ = ()

    def cluster(self, record: ClusterRecord) -> None:
        """A cluster, or one failover segment of it, was delivered."""

    def retry(self, wait_s: float) -> None:
        """A cluster-boundary retry is about to wait ``wait_s``."""

    def recover(self, outage_s: float) -> None:
        """A retry found a source after ``outage_s`` of blocked boundary."""

    def failover(self, stall_s: float) -> None:
        """A mid-stream migration completed after stalling ``stall_s``."""

    def finish(self, record: SessionRecord) -> None:
        """The session ended, completed or failed."""


#: Shared no-op observer.
NO_OBSERVER = SessionObserver()


class _Transfer(Park):
    """One segment of a cluster in flight: a reservation that steps itself.

    A session yields the transfer and sleeps.  :meth:`_tick` is the event
    callback of every rate-update step: it credits the step that ended,
    gives the reservation back, and either takes the rate the path offers
    now and sleeps until the next tick, or — the segment delivered, or
    preempted — resumes the session in the same event.  So a step costs no
    generator wake-up, and the events are those the session would have
    scheduled itself, one ``delay:<process>`` a step, all on one handle
    that each step re-arms until a cut (:meth:`settle`) lets it go.

    Attributes:
        server_uid, title_id, links: What the failover supervisor indexes
            the segment by (``links`` is empty for a home-server serve).
        remaining: Undelivered MB.
        min_rate: Slowest step rate so far, Mbps.
        reason: Why the supervisor preempted the segment (None: it did not).
    """

    __slots__ = (
        "server_uid", "title_id", "links", "remaining", "min_rate", "reason",
        "_sim", "_flows", "_path", "_target_mbps", "_quantum", "_by_elapsed",
        "_process", "_rate", "_step", "_started", "_flow", "_handle", "__weakref__",
    )

    def __init__(self, session: "StreamingSession", decision: VraDecision, size_mb: float):
        path = decision.path
        local = decision.served_locally or path.hop_count == 0
        self.server_uid = decision.chosen_uid
        self.title_id = session._video.title_id
        self.links = () if local else session._flows.links_of(path.nodes)
        self.remaining = size_mb
        self.min_rate = _INF
        self.reason: Optional[str] = None
        self._sim = session._sim
        self._flows = session._flows
        self._path = path.nodes
        # Local serves read from disk; remote ones target the playback rate.
        self._target_mbps = (
            session._local_read_mbps if local else session._video.bitrate_mbps
        )
        self._quantum = session._rate_quantum_s
        # A preemptible step is credited by the clock; one nothing can cut
        # by its scheduled length, as the loop without a supervisor did.
        self._by_elapsed = session._failover is not None
        self._process: Optional[Process] = None
        # The step in flight (_step and _started are set with _rate).
        self._rate: Optional[float] = None
        self._flow = None
        # The tick's handle; None before the first step and after a cut.
        self._handle: Optional[EventHandle] = None

    def _park(self, process: Process) -> None:
        self._process = process
        self._tick(True)

    def preempt(self, reason: str) -> None:
        """Abandon the segment now: the pending tick is cancelled and one
        zero-delay ``poke:<process>`` tick settles the step it cut short and
        wakes the session to re-decide.  The first reason wins."""
        if self.reason is None:
            self.reason = reason
        process = self._process
        if process is not None:
            handle = process._pending_handle
            if handle is not None and handle.cancel():
                process._pending_handle = self._sim.schedule(
                    0.0, self._tick, True, name=f"poke:{process.name}"
                )

    def settle(self, cut: bool) -> None:
        """Credit the step in flight, if any, and release its reservation.
        ``cut``: the step may have ended early (a poke, a preemption, the
        generator closing), so only the elapsed time is credited, and the
        tick's handle, cancelled or done with, is dropped."""
        if cut:
            self._handle = None
        rate = self._rate
        if rate is None:
            return
        self._rate = None
        step = self._step
        if cut or self._by_elapsed:
            step = min(self._sim.now - self._started, step)
        self.remaining -= rate * step / 8.0
        if self._flow is not None:
            self._flows.release(self._flow)
            self._flow = None

    def _tick(self, cut: bool = False) -> None:
        self.settle(cut)
        process = self._process
        if self.remaining <= 1e-9 or self.reason is not None:
            process._resume(None)
            return
        # Remote serves degrade to the bottleneck's spare capacity, never
        # below MIN_TRANSFER_MBPS: with less than the floor to spare the
        # session crawls at the floor rate without a reservation.
        rate = self._target_mbps
        links = self.links
        if links:
            bottleneck = _INF
            for link in links:
                free = link.free_mbps
                if free < bottleneck:
                    bottleneck = free
            if rate > bottleneck:
                rate = bottleneck
            if rate < MIN_TRANSFER_MBPS:
                rate = MIN_TRANSFER_MBPS
            # FlowManager.reserve's own refusal test (nothing runs between
            # the measurement and the reservation, so it is exact): asking
            # anyway would build and discard a LinkCapacityError per step.
            if rate > bottleneck + 1e-9:
                rate = MIN_TRANSFER_MBPS
            else:
                try:
                    self._flow = self._flows.reserve(self._path, rate)
                except LinkCapacityError:
                    # A path that crosses one link twice: the hops share
                    # capacity the bottleneck counted once.
                    rate = MIN_TRANSFER_MBPS
        if rate < self.min_rate:
            self.min_rate = rate
        step = self.remaining * 8.0 / rate
        if step > self._quantum:
            step = self._quantum
        self._rate = rate
        self._step = step
        sim = self._sim
        self._started = sim.now
        try:
            if cut:  # the first step, or the first after a poke
                self._handle = sim.schedule(step, self._tick, name=process._delay_name)
            else:  # called by the handle that just fired
                sim.rearm(self._handle, step)
            process._pending_handle = self._handle
        except SchedulingError as exc:  # NaN or negative step
            process._fail(exc)


class StreamingSession:
    """Drives one video delivery, cluster by cluster.

    Two collaborators sit beside the decision functions: an optional
    ``failover`` control that can preempt a segment and steer the
    re-decide, and one ``observer`` that only listens.

    Args:
        sim: The simulation engine.
        request: The client request being served.
        video: The requested title.
        cluster_mb: Striping cluster size ``c`` (decides switching
            granularity, as the paper notes).
        decide: Re-runs the VRA for this request and returns the current
            decision; called once per cluster ("the routing algorithm also
            continues to run at the connecting server").
        decide_for_cluster: Optional cluster-aware decision function
            ``f(cluster_index) -> VraDecision`` used *instead of*
            ``decide`` when set.  Fractional placement policies install
            one so prefix-resident clusters serve from the home server
            while the suffix routes through the VRA.  None (default)
            keeps the paper's index-blind per-cluster decide.
        flows: Bandwidth reservation manager for the topology.
        servers: Video servers by node uid (for admission bookkeeping).
        local_read_mbps: Transfer rate for home-server serves.
        retry: Cluster-boundary retry policy (default: disabled —
            fail-fast, the paper's behaviour).
        failover: Optional mid-stream failover control (the service's
            :class:`~repro.resilience.supervisor.SessionSupervisor`).
            When set, the supervisor indexes each segment's transfer via
            ``track``/``untrack`` and may preempt it, after which the
            session re-runs its decision function and migrates the rest
            of the cluster.  None (the default): nothing can preempt a
            segment, so every cluster is one segment.
        observer: The :class:`SessionObserver` told of each delivered
            cluster, retry, recovery, failover and of the finish (the
            service's counters, span and DMA commit/abort).  Default: the
            shared no-op :data:`NO_OBSERVER`.
    """

    def __init__(
        self,
        sim: Simulator,
        request: VideoRequest,
        video: VideoTitle,
        cluster_mb: float,
        decide: DecideFn,
        flows: FlowManager,
        servers: Dict[str, VideoServer],
        decide_for_cluster: Optional[Callable[[int], VraDecision]] = None,
        local_read_mbps: float = DEFAULT_LOCAL_READ_MBPS,
        rate_update_period_s: float = DEFAULT_RATE_UPDATE_PERIOD_S,
        retry: RetryPolicy = NO_RETRY,
        failover: Optional["FailoverControl"] = None,
        observer: SessionObserver = NO_OBSERVER,
    ):
        if not (rate_update_period_s > 0.0):
            raise ReproError(
                f"rate update period must be positive, got {rate_update_period_s!r}"
            )
        self._sim = sim
        self._video = video
        self._cluster_sizes = cluster_sizes(video.size_mb, cluster_mb)
        self._decide = decide
        self._decide_for_cluster = decide_for_cluster
        self._flows = flows
        self._servers = servers
        self._local_read_mbps = local_read_mbps
        self._rate_quantum_s = rate_update_period_s
        self._retry = retry
        self._failover = failover
        self._observer = observer
        self.record = SessionRecord(request=request)

    # ------------------------------------------------------------------ #
    def run(self) -> Generator[Any, None, SessionRecord]:
        """Generator body to wrap in a :class:`repro.sim.process.Process`."""
        request = self.record.request
        request.mark_streaming()
        previous_server: Optional[str] = None
        try:
            for index, size_mb in enumerate(self._cluster_sizes):
                get_decision = self._decider_for(index)
                if self._failover is not None:
                    # Boundary outages also ride the failover control:
                    # the retry budget runs first (byte-identical while
                    # it lasts), then the supervisor stalls the session
                    # through the outage instead of letting it die.
                    decision = yield from self._boundary_decide(get_decision)
                elif self._retry.enabled:
                    decision = yield from self._decide_with_retry(get_decision)
                else:
                    decision = get_decision()
                server_uid = decision.chosen_uid
                switched = previous_server is not None and server_uid != previous_server
                if switched:
                    self.record.switch_count += 1
                previous_server = yield from self._deliver_cluster(
                    index, size_mb, decision, switched, get_decision
                )
        except ReproError as exc:
            request.mark_failed(str(exc))
            self._observer.finish(self.record)
            return self.record
        request.mark_completed()
        self.record.completed_at = self._sim.now
        self._compute_playback_metrics()
        self._observer.finish(self.record)
        return self.record

    def _decider_for(self, index: int) -> DecideFn:
        """The decision function for one cluster: index-aware when a
        fractional placement installed one, the plain VRA call otherwise."""
        if self._decide_for_cluster is None:
            return self._decide
        return lambda: self._decide_for_cluster(index)

    def _decide_with_retry(
        self, get_decision: DecideFn
    ) -> Generator[Delay, None, VraDecision]:
        """One cluster-boundary decision under the retry policy.

        Transient routing failures — every holder crashed or polled out,
        the home server partitioned from all of them — are retried with
        exponential backoff instead of failing the session outright.
        Non-routing errors propagate immediately; exhausting the budget
        re-raises the last routing error (the session then fails exactly
        as it would have fail-fast, just later).
        """
        policy = self._retry
        backoff = policy.backoff_s
        blocked_since: Optional[float] = None
        tries = 0
        while True:
            try:
                decision = get_decision()
            except RoutingError as exc:
                if tries >= policy.attempts:
                    raise
                wait = backoff
                if policy.deadline_s is not None:
                    # Total-backoff budget across the whole session: clip
                    # this wait to the remaining slack, fail when spent.
                    slack = policy.deadline_s - self.record.retry_wait_s
                    if slack <= 1e-12:
                        raise
                    wait = min(backoff, slack)
                if blocked_since is None:
                    blocked_since = self._sim.now
                tries += 1
                self.record.retry_count += 1
                self.record.retry_wait_s += wait
                self._observer.retry(wait)
                yield Delay(wait)
                backoff = min(backoff * policy.multiplier, policy.max_backoff_s)
                continue
            if blocked_since is not None:
                self.record.recovered = True
                self._observer.recover(self._sim.now - blocked_since)
            return decision

    # ------------------------------------------------------------------ #
    def _deliver_cluster(
        self,
        index: int,
        size_mb: float,
        decision: VraDecision,
        switched: bool,
        get_decision: DecideFn,
    ) -> Generator[Any, None, str]:
        """Deliver one cluster as a chain of preemptible segments.

        The fault-free case is exactly one segment, and the generator
        sleeps through it: the :class:`_Transfer` steps on the engine and
        wakes it when the segment is over.  Only a session under a
        failover supervisor can be preempted mid-flight; the remainder of
        its cluster then re-enters the VRA and continues from a surviving
        holder, and each segment leaves its own partial
        :class:`ClusterRecord` (sizes sum to the cluster size, so the
        playback-continuity math is unchanged).

        Returns:
            The uid of the server that delivered the final bytes, which
            becomes ``previous_server`` for boundary-switch detection.
        """
        control = self._failover
        title_id = self._video.title_id
        while True:
            transfer = _Transfer(self, decision, size_mb)
            server = self._servers.get(decision.chosen_uid)
            lease = server.begin_serving(title_id) if server is not None else None
            start = self._sim.now
            if control is not None:
                control.track(transfer)
            try:
                # One pass per wake-up; a poke that is not a preemption
                # parks the transfer again, which settles the step it cut.
                while transfer.remaining > 1e-9 and transfer.reason is None:
                    yield transfer
            finally:
                if control is not None:
                    control.untrack(transfer)
                transfer.settle(True)
                if lease is not None:
                    server.end_serving(lease)
            end = self._sim.now
            remaining = transfer.remaining
            # Only a supervised segment can stop short of its cluster.  A
            # finished one is booked whole without a supervisor and as what
            # its steps credited with one (under 1e-9 MB apart): the two
            # polling loops this one replaced, bit for bit.
            delivered = size_mb if control is None else size_mb - remaining
            if delivered > 1e-9:
                min_rate = transfer.min_rate
                qos_violated = min_rate < self._video.bitrate_mbps - 1e-9
                if qos_violated:
                    self.record.qos_violation_count += 1
                cluster_record = ClusterRecord(
                    index=index,
                    server_uid=decision.chosen_uid,
                    path_nodes=decision.path.nodes,
                    rate_mbps=delivered * 8.0 / (end - start) if end > start else min_rate,
                    start=start,
                    end=end,
                    size_mb=delivered,
                    switched=switched,
                    qos_violated=qos_violated,
                )
                self.record.clusters.append(cluster_record)
                self._observer.cluster(cluster_record)
            if remaining <= 1e-9:
                return decision.chosen_uid
            size_mb = remaining
            old_uid = decision.chosen_uid
            decision = yield from self._failover_decide(get_decision, transfer.reason)
            switched = decision.chosen_uid != old_uid
            if switched:
                self.record.switch_count += 1

    def _boundary_decide(
        self, get_decision: DecideFn
    ) -> Generator[Delay, None, VraDecision]:
        """One cluster-boundary decision under the failover safety net.

        The configured retry policy runs first, exactly as it would
        without a supervisor; only when it gives up (fail-fast with no
        budget, or the budget spent) does the failover control take
        over and stall the session through the outage instead of
        failing it.
        """
        try:
            if self._retry.enabled:
                decision = yield from self._decide_with_retry(get_decision)
            else:
                decision = get_decision()
        except RoutingError:
            decision = yield from self._failover_decide(get_decision, "boundary")
        return decision

    def _failover_decide(
        self, get_decision: DecideFn, reason: str
    ) -> Generator[Delay, None, VraDecision]:
        """Find a replacement source after a fault or routing outage.

        Routing failures while a full copy of the title is still
        registered somewhere are transient — the holder is crashed (it
        will recover), its slots are full, or the path is congested —
        so the session stalls ``backoff_s`` and retries.  Only when no
        full holder *remains* anywhere (the last copy was lost) does
        the supervisor log the verdict and fail the session; by then no
        online full holder can exist either, which is the invariant the
        property suite pins.
        """
        control = self._failover
        stall_started = self._sim.now
        while True:
            try:
                decision = get_decision()
            except RoutingError as exc:
                if not control.holder_exists(self._video.title_id):
                    control.note_failed(self._video.title_id, reason)
                    raise ReproError(
                        f"failover ({reason}): no full holder of title "
                        f"{self._video.title_id!r} remains: {exc}"
                    ) from exc
                yield Delay(control.backoff_s)
                continue
            stall = self._sim.now - stall_started
            self.record.failover_count += 1
            self.record.failover_stall_s += stall
            control.note_failover(stall)
            self._observer.failover(stall)
            return decision

    def _compute_playback_metrics(self) -> None:
        """Startup delay and stall time from the cluster timeline.

        Playback starts when the first cluster lands; cluster ``i`` plays
        for its share of the title's duration and can only start once both
        the previous cluster finished playing and cluster ``i`` finished
        downloading.  Accumulated waiting past startup is stall time.
        """
        clusters = self.record.clusters
        if not clusters:
            return
        request = self.record.request
        self.record.startup_delay_s = clusters[0].end - request.submitted_at
        seconds_per_mb = self._video.playback_seconds_per_mb()
        playback_cursor = clusters[0].end
        stall = 0.0
        for record in clusters:
            if record.end > playback_cursor:
                stall += record.end - playback_cursor
                playback_cursor = record.end
            playback_cursor += record.size_mb * seconds_per_mb
        self.record.stall_s = stall
