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
from typing import Dict, Optional, Tuple

from repro.errors import LinkCapacityError
from repro.network.feed import STATE, TRAFFIC, ChangeFeed


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
    #: The owning topology's change feed, set by :meth:`Topology.add_link`:
    #: an online flip publishes ``STATE`` and a used-bandwidth change
    #: ``TRAFFIC``, with the link as key.
    _feed: Optional[ChangeFeed] = field(default=None, repr=False, compare=False)
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
        boundary).  A flip publishes ``STATE`` on the topology's feed."""
        return self._online

    @online.setter
    def online(self, value: bool) -> None:
        previous, self._online = self._online, value
        if bool(previous) != bool(value):
            self._publish(STATE)

    def _publish(self, kind: int) -> None:
        feed = self._feed
        if feed is not None:
            feed.publish(kind, self)

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
            self._publish(TRAFFIC)

    @property
    def reserved_mbps(self) -> float:
        """Bandwidth currently reserved by VoD flows, in Mbps."""
        return self._reserved_mbps

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
            self._set_free()
            self._publish(TRAFFIC)

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
            self._publish(TRAFFIC)

    def __hash__(self) -> int:
        return hash(self.key)
