"""Typed fault events.

The paper's operational claim — the service "adjusts itself to the
changes occurring to the network ... such changes may be bandwidth
shortages or server configuration changes" — is only testable if those
changes can be *injected* deterministically.  Each event class below
models one failure mode the service must absorb:

* :class:`LinkFlap` — a backbone link goes down and later recovers;
* :class:`LinkDegrade` — a bandwidth shortage: a slice of the link's
  capacity is eaten by a surge of non-VoD traffic for a while;
* :class:`ServerCrash` — a video server stops answering polls, then
  recovers;
* :class:`DiskFailure` — one disk in a server's striping array dies,
  making every title with clusters on it unservable until the swap;
* :class:`SnmpBlackout` — the statistics collectors go dark, so the VRA
  routes on stale link stats until collection resumes.

Events carry *offsets* (``time_s``) from the injector's start and a
``duration_s`` after which the paired recovery is applied.  All events
are frozen and comparable, so a :class:`~repro.faults.schedule.FaultSchedule`
replays bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict

from repro.errors import FaultInjectionError

#: Fault-kind labels (the ``kind`` label on the ``fault.*`` instruments).
LINK_FLAP = "link-flap"
LINK_DEGRADE = "link-degrade"
SERVER_CRASH = "server-crash"
DISK_FAILURE = "disk-failure"
SNMP_BLACKOUT = "snmp-blackout"

#: Every kind, in the canonical reporting order.
FAULT_KINDS = (LINK_FLAP, LINK_DEGRADE, SERVER_CRASH, DISK_FAILURE, SNMP_BLACKOUT)


@dataclass(frozen=True)
class FaultEvent:
    """Base fault: an injection at ``time_s`` undone ``duration_s`` later.

    Attributes:
        time_s: Offset from the injector's start, simulated seconds.
        duration_s: How long the fault stays applied before recovery.
    """

    time_s: float
    duration_s: float

    #: Overridden per subclass; ClassVar keeps it out of the field list
    #: (and out of the constructor signature).
    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if not (self.time_s >= 0.0):
            raise FaultInjectionError(
                f"fault time must be >= 0, got {self.time_s!r}"
            )
        if not (self.duration_s > 0.0):
            raise FaultInjectionError(
                f"fault duration must be positive, got {self.duration_s!r}"
            )

    @property
    def target(self) -> str:
        """What the fault hits (link name, server uid, ...)."""
        raise NotImplementedError

    @property
    def recovery_time_s(self) -> float:
        """Offset at which the paired recovery applies."""
        return self.time_s + self.duration_s

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for reports and JSON export."""
        return {
            "kind": self.kind,
            "target": self.target,
            "time_s": self.time_s,
            "duration_s": self.duration_s,
        }


def _require(value: str, what: str) -> None:
    if not value:
        raise FaultInjectionError(f"{what} must be non-empty")


@dataclass(frozen=True)
class LinkFlap(FaultEvent):
    """A link fails (``online = False``) and recovers after the window.

    Overlapping flaps of the same link stack: the link comes back only
    when the last window closes.
    """

    link_name: str = ""
    kind = LINK_FLAP

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.link_name, "link_name")

    @property
    def target(self) -> str:
        return self.link_name


@dataclass(frozen=True)
class LinkDegrade(FaultEvent):
    """A bandwidth shortage: ``fraction`` of the link's capacity is taken
    by extra background traffic for the window (clamped at capacity), then
    released.  Overlapping degradations stack additively."""

    link_name: str = ""
    fraction: float = 0.5
    kind = LINK_DEGRADE

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.link_name, "link_name")
        if not (0.0 < self.fraction <= 1.0):
            raise FaultInjectionError(
                f"degrade fraction must be in (0, 1], got {self.fraction!r}"
            )

    @property
    def target(self) -> str:
        return self.link_name

    def as_dict(self) -> Dict[str, object]:
        data = super().as_dict()
        data["fraction"] = self.fraction
        return data


@dataclass(frozen=True)
class ServerCrash(FaultEvent):
    """A video server crashes (``online = False``) and later recovers.
    Its cached titles stay advertised in the database; availability polls
    keep it out of decisions while down.  Overlapping crashes stack."""

    server_uid: str = ""
    kind = SERVER_CRASH

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.server_uid, "server_uid")

    @property
    def target(self) -> str:
        return self.server_uid


@dataclass(frozen=True)
class DiskFailure(FaultEvent):
    """One disk in a server's striping array fails.  Cyclic striping means
    most resident titles touch the dead disk and poll out until the disk
    is swapped back in at recovery."""

    server_uid: str = ""
    disk_index: int = 0
    kind = DISK_FAILURE

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.server_uid, "server_uid")
        if self.disk_index < 0:
            raise FaultInjectionError(
                f"disk index must be >= 0, got {self.disk_index!r}"
            )

    @property
    def target(self) -> str:
        return f"{self.server_uid}:disk{self.disk_index}"

    def as_dict(self) -> Dict[str, object]:
        data = super().as_dict()
        data["disk_index"] = self.disk_index
        return data


@dataclass(frozen=True)
class SnmpBlackout(FaultEvent):
    """The SNMP statistics collectors go dark: collection rounds are
    skipped whole and the VRA routes on the last stats written until the
    blackout lifts.  Overlapping blackouts nest."""

    kind = SNMP_BLACKOUT

    @property
    def target(self) -> str:
        return "collector"
