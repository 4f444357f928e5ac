"""Network link model.

A :class:`Link` is an undirected, capacity-limited connection between two
nodes.  Its *used* bandwidth has two components:

* ``background_mbps`` — traffic from everything that is not the VoD service
  (the Table 2 SNMP samples are background traffic), and
* ``reserved_mbps`` — bandwidth held by active VoD streams, managed by
  :class:`repro.network.flows.FlowManager`.

Equation (5) of the paper defines utilisation as (traffic_in + traffic_out)
divided by total bandwidth; here both directions are aggregated into the
single used-bandwidth figure, matching how Table 2 reports each link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import LinkCapacityError

#: Change-notification kinds emitted to a link's version listener.
STATE_CHANGE = "state"
TRAFFIC_CHANGE = "traffic"


def link_key(a_uid: str, b_uid: str) -> Tuple[str, str]:
    """Canonical undirected key for the link between two node uids."""
    if a_uid == b_uid:
        raise ValueError(f"self-loop links are not allowed (node {a_uid!r})")
    return (a_uid, b_uid) if a_uid <= b_uid else (b_uid, a_uid)


@dataclass
class Link:
    """An undirected network link.

    Attributes:
        a_uid: One endpoint's node uid.
        b_uid: Other endpoint's node uid.
        capacity_mbps: Total bandwidth of the link (LBW in the paper).
        name: Human-readable label, e.g. ``"Patra-Athens"``.
        attributes: Free-form metadata.
        free_mbps: Spare capacity in Mbps (capacity minus
            :attr:`used_mbps`); a field every used-bandwidth change resets.
    """

    a_uid: str
    b_uid: str
    capacity_mbps: float
    name: str = ""
    attributes: Dict[str, object] = field(default_factory=dict)
    _online: bool = field(default=True, repr=False)
    _background_mbps: float = field(default=0.0, repr=False)
    _reserved_mbps: float = field(default=0.0, repr=False)
    #: Monotonic counter of online/offline transitions (routing-relevant
    #: *structural* state).  Feeds the epoch-versioned routing cache.
    _state_version: int = field(default=0, repr=False, compare=False)
    #: Monotonic counter of used-bandwidth mutations (background traffic
    #: and flow reservations) — routing-relevant only on the ground-truth
    #: (``use_reported_stats=False``) path.
    _traffic_version: int = field(default=0, repr=False, compare=False)
    #: Telemetry: reservations granted over the link's lifetime, and the
    #: high-water mark of concurrently reserved VoD bandwidth.
    _reserve_count: int = field(default=0, repr=False, compare=False)
    _peak_reserved_mbps: float = field(default=0.0, repr=False, compare=False)
    #: Set by :meth:`Topology.add_link` so the owning topology can expose a
    #: combined version without scanning every link per lookup.  Called
    #: with ``(kind, link)``.
    _version_listener: Optional[Callable[[str, "Link"], None]] = field(
        default=None, repr=False, compare=False
    )
    free_mbps: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.capacity_mbps > 0.0):
            raise LinkCapacityError(
                f"link capacity must be positive, got {self.capacity_mbps!r}"
            )
        self.a_uid, self.b_uid = link_key(self.a_uid, self.b_uid)
        if not self.name:
            self.name = f"{self.a_uid}-{self.b_uid}"
        self._set_free()

    @property
    def online(self) -> bool:
        """Administrative/operational state.  A failed link is skipped by
        routing and excluded from the LVN node validations; existing
        reservations are not forcibly torn down (in-flight cluster transfers
        finish at their current rate and reroute at the next cluster
        boundary).  A flip advances :attr:`state_version`."""
        return self._online

    @online.setter
    def online(self, value: bool) -> None:
        previous, self._online = self._online, value
        if bool(previous) != bool(value):
            self._notify(STATE_CHANGE)

    # ------------------------------------------------------------------ #
    # change versioning
    # ------------------------------------------------------------------ #
    @property
    def state_version(self) -> int:
        """Counter of online/offline transitions on this link."""
        return self._state_version

    @property
    def traffic_version(self) -> int:
        """Counter of used-bandwidth mutations on this link."""
        return self._traffic_version

    def _notify(self, kind: str) -> None:
        if kind == STATE_CHANGE:
            self._state_version += 1
        else:
            self._traffic_version += 1
        listener = self._version_listener
        if listener is not None:
            listener(kind, self)

    # ------------------------------------------------------------------ #
    @property
    def key(self) -> Tuple[str, str]:
        """Canonical (sorted) endpoint-uid pair identifying this link."""
        return (self.a_uid, self.b_uid)

    @property
    def endpoints(self) -> Tuple[str, str]:
        """Alias of :attr:`key` for readability at call sites."""
        return self.key

    def other_end(self, uid: str) -> str:
        """The endpoint opposite ``uid``.

        Raises:
            ValueError: If ``uid`` is not an endpoint of this link.
        """
        if uid == self.a_uid:
            return self.b_uid
        if uid == self.b_uid:
            return self.a_uid
        raise ValueError(f"node {uid!r} is not an endpoint of link {self.name}")

    def touches(self, uid: str) -> bool:
        """True if ``uid`` is one of this link's endpoints."""
        return uid == self.a_uid or uid == self.b_uid

    # ------------------------------------------------------------------ #
    # bandwidth accounting
    # ------------------------------------------------------------------ #
    @property
    def background_mbps(self) -> float:
        """Non-VoD traffic on the link, in Mbps."""
        return self._background_mbps

    def set_background_mbps(self, mbps: float) -> None:
        """Set background traffic (clamped into [0, capacity])."""
        if mbps < 0.0:
            raise LinkCapacityError(f"background traffic cannot be negative, got {mbps!r}")
        clamped = min(float(mbps), self.capacity_mbps)
        if clamped != self._background_mbps:
            self._background_mbps = clamped
            self._set_free()
            self._notify(TRAFFIC_CHANGE)

    @property
    def reserved_mbps(self) -> float:
        """Bandwidth currently reserved by VoD flows, in Mbps."""
        return self._reserved_mbps

    @property
    def reserve_count(self) -> int:
        """Reservations granted over the link's lifetime (telemetry)."""
        return self._reserve_count

    @property
    def peak_reserved_mbps(self) -> float:
        """High-water mark of concurrently reserved bandwidth (telemetry)."""
        return self._peak_reserved_mbps

    @property
    def used_mbps(self) -> float:
        """Total used bandwidth (UBW in the paper): background + reserved."""
        return min(self._background_mbps + self._reserved_mbps, self.capacity_mbps)

    def _set_free(self) -> None:
        used = self._background_mbps + self._reserved_mbps
        capacity = self.capacity_mbps
        self.free_mbps = capacity - used if used < capacity else 0.0

    @property
    def utilization(self) -> float:
        """Used over total bandwidth, in [0, 1] (LT in the paper)."""
        return self.used_mbps / self.capacity_mbps

    def reserve(self, mbps: float) -> None:
        """Reserve ``mbps`` of bandwidth for a VoD flow.

        Raises:
            LinkCapacityError: If the reservation does not fit in the spare
                capacity.  Admission control in the service catches this and
                treats the path as unusable.
        """
        if mbps < 0.0:
            raise LinkCapacityError(f"cannot reserve negative bandwidth {mbps!r}")
        if mbps > self.free_mbps + 1e-9:
            raise LinkCapacityError(
                f"link {self.name}: reserving {mbps:.3f} Mbps exceeds free "
                f"capacity {self.free_mbps:.3f} Mbps"
            )
        if mbps > 0.0:
            self._reserved_mbps += mbps
            self._reserve_count += 1
            if self._reserved_mbps > self._peak_reserved_mbps:
                self._peak_reserved_mbps = self._reserved_mbps
            self._set_free()
            self._notify(TRAFFIC_CHANGE)

    def release(self, mbps: float) -> None:
        """Release a previous reservation of ``mbps``."""
        if mbps < 0.0:
            raise LinkCapacityError(f"cannot release negative bandwidth {mbps!r}")
        if mbps > self._reserved_mbps + 1e-9:
            raise LinkCapacityError(
                f"link {self.name}: releasing {mbps:.3f} Mbps but only "
                f"{self._reserved_mbps:.3f} Mbps is reserved"
            )
        self._reserved_mbps = max(self._reserved_mbps - mbps, 0.0)
        if self._reserved_mbps < 1e-12:
            # Snap float dust so an idle link reads exactly zero.
            self._reserved_mbps = 0.0
        self._set_free()
        if mbps > 0.0:
            self._notify(TRAFFIC_CHANGE)

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return (
            f"Link({self.name!r}, {self.capacity_mbps:g} Mbps, "
            f"used={self.used_mbps:.3f})"
        )
