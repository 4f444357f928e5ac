"""Fault schedules: scripted and seeded-random fault timelines.

A :class:`FaultSchedule` is an immutable, time-ordered list of
:class:`~repro.faults.events.FaultEvent` instances:

* ``FaultSchedule(events)`` — a hand-written timeline (any order) for
  tests and targeted experiments;
* :meth:`FaultSchedule.seeded` — Poisson-process fault storms derived
  from a master seed via :class:`~repro.sim.rng.RngRegistry`, one
  independent stream per fault kind so changing one rate never shifts
  the arrivals of another.  The same seed and parameters always produce
  the identical schedule, which is what makes chaos runs replayable
  bit-for-bit.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.errors import FaultInjectionError
from repro.faults.events import (
    DISK_FAILURE,
    FAULT_KINDS,
    LINK_DEGRADE,
    LINK_FLAP,
    SERVER_CRASH,
    SNMP_BLACKOUT,
    DiskFailure,
    FaultEvent,
    LinkDegrade,
    LinkFlap,
    ServerCrash,
    SnmpBlackout,
)
from repro.sim.rng import RngRegistry

#: Floor on generated fault durations: a zero-length window would apply
#: and recover at the same instant, which tests nothing.
MIN_FAULT_DURATION_S = 1.0


class FaultSchedule:
    """An immutable, time-ordered fault timeline.

    Events are sorted by injection time; ties keep the order they were
    given in (stable sort), so equal-time events replay identically.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()):
        for event in events:
            if not isinstance(event, FaultEvent):
                raise FaultInjectionError(
                    f"schedule entries must be FaultEvent, got {event!r}"
                )
        self._events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.time_s)
        )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def seeded(
        cls,
        seed: int,
        duration_s: float,
        link_names: Sequence[str] = (),
        server_uids: Sequence[str] = (),
        *,
        link_flap_rate_per_h: float = 0.0,
        link_degrade_rate_per_h: float = 0.0,
        server_crash_rate_per_h: float = 0.0,
        disk_failure_rate_per_h: float = 0.0,
        snmp_blackout_rate_per_h: float = 0.0,
        mean_fault_duration_s: float = 300.0,
        degrade_fraction: float = 0.5,
        disks_per_server: int = 1,
    ) -> "FaultSchedule":
        """Generate a random fault storm deterministically from ``seed``.

        Each fault kind is an independent Poisson process: inter-arrival
        times are exponential at the kind's rate, targets are drawn
        uniformly from the given lists, and durations are exponential
        around ``mean_fault_duration_s`` (floored at
        :data:`MIN_FAULT_DURATION_S`).  Every kind consumes its own
        named RNG stream (``faults.<kind>``), so the storm for one kind
        is a pure function of (seed, that kind's parameters).

        Args:
            seed: Master seed for the :class:`RngRegistry`.
            duration_s: Horizon; no fault is *injected* after it (its
                recovery may land later).
            link_names: Candidate links for flaps/degradations.
            server_uids: Candidate servers for crashes/disk failures.
            link_flap_rate_per_h: Link failures per hour (whole network).
            link_degrade_rate_per_h: Bandwidth shortages per hour.
            server_crash_rate_per_h: Server crashes per hour.
            disk_failure_rate_per_h: Disk failures per hour.
            snmp_blackout_rate_per_h: Collector blackouts per hour.
            mean_fault_duration_s: Mean of the duration distribution.
            degrade_fraction: Capacity fraction each shortage consumes.
            disks_per_server: Disk indices drawn for disk failures are
                uniform in ``[0, disks_per_server)``.
        """
        if not (duration_s > 0.0):
            raise FaultInjectionError(
                f"schedule duration must be positive, got {duration_s!r}"
            )
        if not (mean_fault_duration_s > 0.0):
            raise FaultInjectionError(
                "mean fault duration must be positive, got "
                f"{mean_fault_duration_s!r}"
            )
        if disks_per_server < 1:
            raise FaultInjectionError(
                f"disks_per_server must be >= 1, got {disks_per_server!r}"
            )
        rates = {
            LINK_FLAP: link_flap_rate_per_h,
            LINK_DEGRADE: link_degrade_rate_per_h,
            SERVER_CRASH: server_crash_rate_per_h,
            DISK_FAILURE: disk_failure_rate_per_h,
            SNMP_BLACKOUT: snmp_blackout_rate_per_h,
        }
        for kind, rate in rates.items():
            if rate < 0.0:
                raise FaultInjectionError(
                    f"{kind} rate must be >= 0, got {rate!r}"
                )
        if (rates[LINK_FLAP] > 0.0 or rates[LINK_DEGRADE] > 0.0) and not link_names:
            raise FaultInjectionError(
                "link fault rates require at least one link name"
            )
        if (
            rates[SERVER_CRASH] > 0.0 or rates[DISK_FAILURE] > 0.0
        ) and not server_uids:
            raise FaultInjectionError(
                "server fault rates require at least one server uid"
            )

        links = tuple(link_names)
        servers = tuple(server_uids)
        rngs = RngRegistry(master_seed=seed)
        events: List[FaultEvent] = []
        for kind in FAULT_KINDS:  # fixed order: stream creation is stable
            rate_per_s = rates[kind] / 3600.0
            if rate_per_s <= 0.0:
                continue
            rng = rngs.stream(f"faults.{kind}")
            at = rng.expovariate(rate_per_s)
            while at <= duration_s:
                dur = max(
                    MIN_FAULT_DURATION_S,
                    rng.expovariate(1.0 / mean_fault_duration_s),
                )
                if kind == LINK_FLAP:
                    events.append(
                        LinkFlap(at, dur, link_name=rng.choice(links))
                    )
                elif kind == LINK_DEGRADE:
                    events.append(
                        LinkDegrade(
                            at,
                            dur,
                            link_name=rng.choice(links),
                            fraction=degrade_fraction,
                        )
                    )
                elif kind == SERVER_CRASH:
                    events.append(
                        ServerCrash(at, dur, server_uid=rng.choice(servers))
                    )
                elif kind == DISK_FAILURE:
                    events.append(
                        DiskFailure(
                            at,
                            dur,
                            server_uid=rng.choice(servers),
                            disk_index=rng.randrange(disks_per_server),
                        )
                    )
                else:
                    events.append(SnmpBlackout(at, dur))
                at += rng.expovariate(rate_per_s)
        return cls(events)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    @property
    def horizon_s(self) -> float:
        """When the last recovery lands (0 for an empty schedule)."""
        return max((e.recovery_time_s for e in self._events), default=0.0)
