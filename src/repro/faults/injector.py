"""The fault injector: applies a schedule against a running service.

The :class:`FaultInjector` turns a :class:`~repro.faults.schedule.FaultSchedule`
into simulator events — one injection and one recovery per fault — and
drives every mutation through the exact surfaces the production code
already journals:

* link flaps flip :attr:`Link.online` (value-aware, bumps the link's
  state version → routing epoch, change journal);
* bandwidth shortages add background traffic via
  :meth:`Link.set_background_mbps` (traffic version), remembering the
  *applied* delta so a capacity-clamped shortage is undone exactly;
* server crashes flip the value-aware :attr:`VideoServer.online`
  (availability polls then exclude the server — no epoch bump needed,
  server state enters decisions via the live poll);
* disk failures call :meth:`DiskArray.fail_disk` / ``restore_disk``;
* SNMP blackouts nest :meth:`StatisticsService.blackout` / ``restore``.

Overlapping windows of the same fault on the same target are depth
counted: the target recovers only when the *last* window closes, so a
random storm can never "recover" a resource another active fault still
holds down.

All bookkeeping the resilience report consumes (`injected_by_kind`,
`mttr`, the fault log) is plain sim-time integers/floats independent of
the obs layer, so a seeded chaos run replays bit-for-bit whether or not
telemetry is on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import FaultInjectionError
from repro.faults.events import (
    DISK_FAILURE,
    FAULT_KINDS,
    LINK_DEGRADE,
    LINK_FLAP,
    SERVER_CRASH,
    SNMP_BLACKOUT,
    FaultEvent,
    LinkDegrade,
)
from repro.faults.schedule import FaultSchedule
from repro.obs.registry import NULL_HISTOGRAM, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.service import VoDService


class FaultInjector:
    """Applies one fault schedule to one service, on the sim clock.

    Args:
        service: The running :class:`~repro.core.service.VoDService`.
        schedule: The fault timeline; offsets are relative to the sim
            time at which :meth:`start` is called.
        registry: Metrics registry for the ``fault.*`` instruments;
            defaults to the service's own (no-ops when telemetry is off).
    """

    def __init__(
        self,
        service: "VoDService",
        schedule: FaultSchedule,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._service = service
        self._sim = service.sim
        self.schedule = schedule
        self._registry = registry if registry is not None else service.obs
        self._started = False
        self._started_at = 0.0

        #: Plain deterministic counters — the resilience report reads
        #: these, never the obs instruments (which may be disabled).
        self.injected_by_kind: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self.recovered_by_kind: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        #: Chronological record of every injection/recovery, for reports
        #: and the chaos CLI (bounded by 2 * len(schedule)).
        self.log: List[Dict[str, object]] = []
        self._mttr_total_s = 0.0
        self._mttr_count = 0

        # Depth counters per (kind, target): overlapping windows stack.
        self._depth: Dict[Tuple[str, str], int] = {}
        # Applied background-traffic deltas per active degrade window, in
        # application order per link (clamp-aware undo pops its own entry).
        self._degrade_applied: Dict[int, float] = {}
        self._active = 0

        self._m_injected: Dict[str, object] = {}
        self._m_recovered: Dict[str, object] = {}
        self._m_mttr = NULL_HISTOGRAM
        self._attach_metrics()

    def _attach_metrics(self) -> None:
        registry = self._registry
        for kind in FAULT_KINDS:
            self._m_injected[kind] = registry.counter(
                "fault.injected", subsystem="faults", labels={"kind": kind},
                description="faults applied by the injector",
            )
            self._m_recovered[kind] = registry.counter(
                "fault.recovered", subsystem="faults", labels={"kind": kind},
                description="fault windows closed by the injector",
            )
        self._m_mttr = registry.histogram(
            "resilience.fault_mttr_s", subsystem="faults",
            description="simulated time from injection to recovery per fault (s)",
        )
        if registry.enabled:
            registry.gauge(
                "fault.active", subsystem="faults",
                description="fault windows currently open",
                callback=lambda: float(self._active),
            )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def mean_mttr_s(self) -> float:
        """Mean injection-to-recovery time over recovered faults (s)."""
        if self._mttr_count == 0:
            return 0.0
        return self._mttr_total_s / self._mttr_count

    def start(self) -> None:
        """Schedule every injection (and, at apply time, its recovery).

        Offsets in the schedule are relative to the sim clock *now*.
        May only be called once.
        """
        if self._started:
            raise FaultInjectionError("fault injector already started")
        self._started = True
        self._started_at = self._sim.now
        for event in self.schedule:
            self._sim.schedule_at(
                self._started_at + event.time_s,
                self._apply,
                event,
                name=f"fault:{event.kind}:{event.target}",
            )

    # ------------------------------------------------------------------ #
    # apply / recover
    # ------------------------------------------------------------------ #
    def _apply(self, event: FaultEvent) -> None:
        token = (event.kind, event.target)
        depth = self._depth.get(token, 0)
        self._depth[token] = depth + 1
        first = depth == 0

        if event.kind == LINK_FLAP:
            if first:
                self._service.topology.link_named(event.target).online = False
        elif event.kind == LINK_DEGRADE:
            self._apply_degrade(event)
        elif event.kind == SERVER_CRASH:
            if first:
                self._server_of(event.target).online = False
        elif event.kind == DISK_FAILURE:
            if first:
                self._server_of(event.server_uid).array.fail_disk(event.disk_index)
        elif event.kind == SNMP_BLACKOUT:
            self._service.statistics.blackout()
        else:  # pragma: no cover - schedule validation rejects unknown kinds
            raise FaultInjectionError(f"unknown fault kind {event.kind!r}")

        self._active += 1
        self.injected_by_kind[event.kind] += 1
        self._m_injected[event.kind].inc()
        self.log.append(
            {"at_s": self._sim.now, "action": "inject", **event.as_dict()}
        )
        self._sim.schedule(
            event.duration_s,
            self._recover,
            event,
            name=f"recover:{event.kind}:{event.target}",
        )

    def _recover(self, event: FaultEvent) -> None:
        token = (event.kind, event.target)
        depth = self._depth.get(token, 0)
        if depth <= 0:  # pragma: no cover - apply always precedes recover
            raise FaultInjectionError(
                f"recovery without matching injection: {event!r}"
            )
        self._depth[token] = depth - 1
        last = depth == 1

        if event.kind == LINK_FLAP:
            if last:
                self._service.topology.link_named(event.target).online = True
        elif event.kind == LINK_DEGRADE:
            self._recover_degrade(event)
        elif event.kind == SERVER_CRASH:
            if last:
                self._server_of(event.target).online = True
        elif event.kind == DISK_FAILURE:
            if last:
                self._server_of(event.server_uid).array.restore_disk(
                    event.disk_index
                )
        elif event.kind == SNMP_BLACKOUT:
            self._service.statistics.restore()

        self._active -= 1
        self.recovered_by_kind[event.kind] += 1
        self._m_recovered[event.kind].inc()
        self._mttr_total_s += event.duration_s
        self._mttr_count += 1
        self._m_mttr.observe(event.duration_s)
        self.log.append(
            {"at_s": self._sim.now, "action": "recover", **event.as_dict()}
        )

    def _apply_degrade(self, event: LinkDegrade) -> None:
        link = self._service.topology.link_named(event.link_name)
        before = link.background_mbps
        link.set_background_mbps(before + event.fraction * link.capacity_mbps)
        # Remember the delta actually applied: the setter clamps at
        # capacity, so overlapping shortages must each undo only what
        # they really added.
        self._degrade_applied[id(event)] = link.background_mbps - before

    def _recover_degrade(self, event: LinkDegrade) -> None:
        applied = self._degrade_applied.pop(id(event), 0.0)
        if applied <= 0.0:
            return
        link = self._service.topology.link_named(event.link_name)
        link.set_background_mbps(max(link.background_mbps - applied, 0.0))

    def _server_of(self, uid: str):
        try:
            return self._service.servers[uid]
        except KeyError:
            raise FaultInjectionError(
                f"fault targets unknown server {uid!r}"
            ) from None
