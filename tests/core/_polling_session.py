"""Test-only oracle: the two polling delivery loops ``core/session.py`` had.

Until PR 23 a session's generator woke once per rate-update step and there
were two copies of the loop: ``_transfer_cluster`` (no supervisor) and
``_deliver_cluster`` / ``_transfer_segment`` (failover on), both through
``_acquire_rate``.  They are kept here **verbatim** (the second entry point
renamed ``_deliver_segments``, the cluster callback now the session
observer's ``cluster``; nothing else touched) as the reference the
engine-driven transfer is held to, event for event and bit for bit
(``tests/properties/test_session_props.py``).

Two known bugs are part of the reference and are the property's listed
exceptions:

* a fault landing at the instant a cluster completes leaves
  ``_preempt_reason`` set, and the *next* cluster is abandoned after one
  quantum (:attr:`PollingSession.stale_preempts` counts the occurrences —
  observation only, the behaviour is untouched);
* without a supervisor a step cut short by ``Process.poke`` is credited in
  full, so a poked session finishes early.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.core.session import (
    MIN_TRANSFER_MBPS,
    ClusterRecord,
    DecideFn,
    StreamingSession,
)
from repro.core.vra import VraDecision
from repro.errors import LinkCapacityError
from repro.sim.process import Delay, Process


class PollingSession(StreamingSession):
    """A :class:`StreamingSession` that delivers with the polling loops.

    The failover control it talks to has the interface of the day:
    ``track(session, decision)`` / ``untrack(session)``, and a preemption
    is ``session.preempt(reason)`` followed by ``process.poke(reason)``
    (:attr:`process` is set by whoever wraps :meth:`run`).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._preempt_reason: Optional[str] = None
        self.process: Optional[Process] = None
        #: Clusters that completed with a preempt reason still pending.
        self.stale_preempts = 0

    @property
    def title_id(self) -> str:
        return self._video.title_id

    def preempt(self, reason: str) -> None:
        """The supervisor's ``_preempt`` of the day: flag, then poke."""
        if self._preempt_reason is None:
            self._preempt_reason = reason
        if self.process is not None:
            self.process.poke(reason)

    def _deliver_cluster(self, index, size_mb, decision, switched, get_decision):
        """``run()``'s dispatch between the two loops, as it was."""
        if self._failover is None:
            yield from self._transfer_cluster(index, size_mb, decision, switched)
            return decision.chosen_uid
        uid = yield from self._deliver_segments(
            index, size_mb, decision, switched, get_decision
        )
        if self._preempt_reason is not None:
            self.stale_preempts += 1
        return uid

    # ------------------------------------------------------------------ #
    # verbatim from core/session.py at PR 22
    # ------------------------------------------------------------------ #
    def _transfer_cluster(
        self, index: int, size_mb: float, decision: VraDecision, switched: bool
    ) -> Generator[Delay, None, None]:
        server = self._servers.get(decision.chosen_uid)
        lease = server.begin_serving(self._video.title_id) if server is not None else None
        path_nodes = decision.path.nodes
        local = decision.served_locally or decision.path.hop_count == 0
        quantum = self._rate_quantum_s
        start = self._sim.now
        remaining = size_mb
        min_rate = float("inf")
        flow = None
        try:
            # Best-effort transfer: re-evaluate the achievable rate every
            # quantum so background-traffic changes mid-cluster slow the
            # transfer down (or let it recover to the playback rate).
            while remaining > 1e-9:
                rate, flow = self._acquire_rate(local, path_nodes)
                if rate < min_rate:
                    min_rate = rate
                step = remaining * 8.0 / rate
                if step > quantum:
                    step = quantum
                yield Delay(step)
                remaining -= rate * step / 8.0
                if flow is not None:
                    self._flows.release(flow)
                    flow = None
        finally:
            if flow is not None:
                self._flows.release(flow)
            if server is not None and lease is not None:
                server.end_serving(lease)
        end = self._sim.now
        qos_violated = min_rate < self._video.bitrate_mbps - 1e-9
        if qos_violated:
            self.record.qos_violation_count += 1
        average_rate = size_mb * 8.0 / (end - start) if end > start else min_rate
        cluster_record = ClusterRecord(
            index=index,
            server_uid=decision.chosen_uid,
            path_nodes=path_nodes,
            rate_mbps=average_rate,
            start=start,
            end=end,
            size_mb=size_mb,
            switched=switched,
            qos_violated=qos_violated,
        )
        self.record.clusters.append(cluster_record)
        self._observer.cluster(cluster_record)

    def _acquire_rate(self, local: bool, node_path: Tuple[str, ...]):
        """Pick the current transfer rate and reserve it on the path.

        Local serves read from disk; remote serves target the playback
        bitrate and degrade to the bottleneck's spare capacity (never below
        :data:`MIN_TRANSFER_MBPS`) when the path is congested.  On a path
        with less than the floor to spare the session crawls at the floor
        rate without a reservation, so progress continues.
        """
        if local:
            return self._local_read_mbps, None
        flows = self._flows
        bottleneck = flows.bottleneck_mbps(node_path)
        rate = self._video.bitrate_mbps
        if rate > bottleneck:
            rate = bottleneck
        if rate < MIN_TRANSFER_MBPS:
            rate = MIN_TRANSFER_MBPS
        # Nothing runs between the measurement and the reservation (one
        # thread, one event at a time), so a refusal is never a race: only
        # the floor clamp can lift the rate above the spare capacity, and
        # this is FlowManager.reserve's own refusal test.  Asking anyway
        # would build, raise and discard a LinkCapacityError per step.
        if rate > bottleneck + 1e-9:
            return MIN_TRANSFER_MBPS, None
        try:
            flow = flows.reserve(node_path, rate)
        except LinkCapacityError:
            # A path that crosses one link twice: the hops share capacity
            # the bottleneck counted once.
            return MIN_TRANSFER_MBPS, None
        return rate, flow

    # ------------------------------------------------------------------ #
    def _deliver_segments(
        self,
        index: int,
        size_mb: float,
        decision: VraDecision,
        switched: bool,
        get_decision: DecideFn,
    ) -> Generator[Delay, None, str]:
        """Deliver one cluster as a chain of preemptible segments.

        The fault-free case is exactly one segment (same events as the
        legacy loop, plus track/untrack bookkeeping).  When a segment is
        preempted mid-flight, the remainder of the cluster re-enters the
        VRA and continues from a surviving holder; each segment leaves
        its own partial :class:`ClusterRecord` (sizes sum to the cluster
        size, so the playback-continuity math is unchanged).

        Returns:
            The uid of the server that delivered the final bytes, which
            becomes ``previous_server`` for boundary-switch detection.
        """
        remaining = size_mb
        current = decision
        segment_switched = switched
        while True:
            remaining = yield from self._transfer_segment(
                index, remaining, current, segment_switched
            )
            if remaining <= 1e-9:
                return current.chosen_uid
            reason = self._preempt_reason or "fault"
            self._preempt_reason = None
            old_uid = current.chosen_uid
            current = yield from self._failover_decide(get_decision, reason)
            segment_switched = current.chosen_uid != old_uid
            if segment_switched:
                self.record.switch_count += 1

    def _transfer_segment(
        self, index: int, size_mb: float, decision: VraDecision, switched: bool
    ) -> Generator[Delay, None, float]:
        """One preemptible slice of a cluster transfer.

        Mirrors :meth:`_transfer_cluster`, with two differences: the
        supervisor indexes the segment while it is in flight, and
        progress accounting uses the *elapsed* time of each step — a
        preempting ``poke`` cuts the delay short, so only the bytes
        actually moved are credited.

        Returns:
            The undelivered remainder in MB (0 when the segment — and
            with it the cluster — completed).
        """
        server = self._servers.get(decision.chosen_uid)
        lease = server.begin_serving(self._video.title_id) if server is not None else None
        path_nodes = decision.path.nodes
        local = decision.served_locally or decision.path.hop_count == 0
        quantum = self._rate_quantum_s
        start = self._sim.now
        remaining = size_mb
        min_rate = float("inf")
        flow = None
        self._failover.track(self, decision)
        try:
            while remaining > 1e-9:
                rate, flow = self._acquire_rate(local, path_nodes)
                if rate < min_rate:
                    min_rate = rate
                step = remaining * 8.0 / rate
                if step > quantum:
                    step = quantum
                step_started = self._sim.now
                yield Delay(step)
                elapsed = self._sim.now - step_started
                remaining -= rate * min(elapsed, step) / 8.0
                if flow is not None:
                    self._flows.release(flow)
                    flow = None
                if self._preempt_reason is not None:
                    break
        finally:
            self._failover.untrack(self)
            if flow is not None:
                self._flows.release(flow)
            if server is not None and lease is not None:
                server.end_serving(lease)
        end = self._sim.now
        delivered = size_mb - remaining
        if delivered > 1e-9:
            qos_violated = min_rate < self._video.bitrate_mbps - 1e-9
            if qos_violated:
                self.record.qos_violation_count += 1
            average_rate = delivered * 8.0 / (end - start) if end > start else min_rate
            cluster_record = ClusterRecord(
                index=index,
                server_uid=decision.chosen_uid,
                path_nodes=path_nodes,
                rate_mbps=average_rate,
                start=start,
                end=end,
                size_mb=delivered,
                switched=switched,
                qos_violated=qos_violated,
            )
            self.record.clusters.append(cluster_record)
            self._observer.cluster(cluster_record)
        return max(remaining, 0.0)
