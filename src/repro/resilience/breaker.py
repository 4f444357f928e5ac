"""Per-resource circuit breakers for servers and links.

A :class:`CircuitBreaker` follows the classic three-state machine:

* **closed** — the resource participates normally; failures are counted
  in a sliding window;
* **open** — after ``threshold`` failures inside ``window_s`` the
  resource is held out (servers leave the holder set the VRA polls,
  links get their LVN weight inflated to worst-case) for ``cooldown_s``;
* **half-open** — after the cooldown one probe is admitted again; the
  first success closes the breaker, the first failure re-opens it with a
  fresh cooldown.

The :class:`BreakerBoard` owns one breaker per server uid and per link
name, creates them lazily, and funnels every state transition through a
single ``on_transition`` callback — the service uses it to ride the
existing version-counter machinery (availability bumps
for servers, database link touches for links), so cache invalidation
needs no new paths.

All timing runs on the simulation clock: the open→half-open transition
is a scheduled sim event, never a lazy wall-clock check, which keeps
breaker behaviour deterministic and byte-replayable under seeded fault
storms.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional

from repro.errors import ReproError
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator

#: Breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: ``BreakerBoard`` resource kinds.
KIND_SERVER = "server"
KIND_LINK = "link"

#: Transition callback: ``(kind, target, old_state, new_state)``.
TransitionFn = Callable[[str, str, str, str], None]


class CircuitBreaker:
    """One resource's failure-window state machine (no clock of its own).

    Args:
        key: The guarded resource (server uid or link name), for reports.
        threshold: Failures within the window that trip the breaker.
        window_s: Sliding failure-count window, simulated seconds.
        cooldown_s: Open time before the half-open probe, simulated
            seconds.
    """

    __slots__ = ("key", "threshold", "window_s", "cooldown_s", "state",
                 "opened_at", "_failures")

    def __init__(self, key: str, threshold: int, window_s: float, cooldown_s: float):
        if threshold < 1:
            raise ReproError(f"breaker threshold must be >= 1, got {threshold!r}")
        if not (window_s > 0.0):
            raise ReproError(f"breaker window must be positive, got {window_s!r}")
        if not (cooldown_s > 0.0):
            raise ReproError(f"breaker cooldown must be positive, got {cooldown_s!r}")
        self.key = key
        self.threshold = threshold
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self.state = BREAKER_CLOSED
        self.opened_at = float("-inf")
        self._failures: Deque[float] = deque()

    @property
    def allowed(self) -> bool:
        """True while the resource may participate (closed or probing)."""
        return self.state != BREAKER_OPEN

    def record_failure(self, now: float) -> bool:
        """Count one failure; returns True when this trips the breaker.

        A failure during the half-open probe re-opens immediately (the
        probe failed); failures while already open refresh the cooldown
        origin so a still-flapping resource never gets probed early.
        """
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_OPEN
            self.opened_at = now
            self._failures.clear()
            return True
        if self.state == BREAKER_OPEN:
            self.opened_at = now
            return False
        failures = self._failures
        floor = now - self.window_s
        while failures and failures[0] < floor:
            failures.popleft()
        failures.append(now)
        if len(failures) >= self.threshold:
            self.state = BREAKER_OPEN
            self.opened_at = now
            failures.clear()
            return True
        return False

    def record_success(self, now: float) -> bool:
        """A successful use; returns True when this closes a probe."""
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
            return True
        return False

    def half_open(self, now: float) -> bool:
        """Cooldown expiry: open → half-open if the cooldown really
        elapsed (a re-open may have pushed ``opened_at`` forward, in
        which case a newer expiry event is already scheduled)."""
        if self.state != BREAKER_OPEN:
            return False
        if now - self.opened_at < self.cooldown_s - 1e-9:
            return False
        self.state = BREAKER_HALF_OPEN
        return True


class BreakerBoard:
    """Every breaker of one service, with deterministic bookkeeping.

    Args:
        sim: The simulation engine (schedules half-open probes).
        threshold / window_s / cooldown_s: Shared breaker parameters.
        on_transition: Invoked on *every* state change with
            ``(kind, target, old_state, new_state)`` — the service's hook
            into the version-counter machinery.
        registry: Telemetry registry for the ``breaker.*`` counters
            (no-ops when disabled; the deterministic counts below are
            what reports read).
    """

    def __init__(
        self,
        sim: Simulator,
        threshold: int,
        window_s: float,
        cooldown_s: float,
        on_transition: Optional[TransitionFn] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._sim = sim
        self._threshold = threshold
        self._window_s = window_s
        self._cooldown_s = cooldown_s
        self.on_transition = on_transition
        self._servers: Dict[str, CircuitBreaker] = {}
        self._links: Dict[str, CircuitBreaker] = {}
        #: Deterministic transition counts by ``(kind, new_state)``.
        self.opened_by_kind: Dict[str, int] = {KIND_SERVER: 0, KIND_LINK: 0}
        self.closed_by_kind: Dict[str, int] = {KIND_SERVER: 0, KIND_LINK: 0}
        self.half_open_by_kind: Dict[str, int] = {KIND_SERVER: 0, KIND_LINK: 0}
        #: Chronological trip log (bounded by the number of transitions).
        self.log: List[Dict[str, object]] = []
        registry = registry if registry is not None else MetricsRegistry(enabled=False)
        self._m_opened = {
            kind: registry.counter(
                "breaker.opened", subsystem="resilience", labels={"kind": kind},
                description="circuit breakers tripped open",
            )
            for kind in (KIND_SERVER, KIND_LINK)
        }
        self._m_closed = {
            kind: registry.counter(
                "breaker.closed", subsystem="resilience", labels={"kind": kind},
                description="breakers closed by a successful half-open probe",
            )
            for kind in (KIND_SERVER, KIND_LINK)
        }
        self._m_half_open = {
            kind: registry.counter(
                "breaker.half_open", subsystem="resilience", labels={"kind": kind},
                description="breakers entering the half-open probe state",
            )
            for kind in (KIND_SERVER, KIND_LINK)
        }

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def server_allowed(self, uid: str) -> bool:
        """May this server stay in the holder set?"""
        breaker = self._servers.get(uid)
        return breaker is None or breaker.allowed

    def link_open(self, name: str) -> bool:
        """Is this link's breaker open (weight inflated to worst-case)?"""
        breaker = self._links.get(name)
        return breaker is not None and breaker.state == BREAKER_OPEN

    def filter_servers(self, holders: Iterable[str]) -> List[str]:
        """The holder set with breaker-open servers removed.

        Falls back to the unfiltered set when every holder is tripped, so
        breakers degrade routing quality but can never *cause* a failure
        a breaker-less run would not have had.
        """
        holders = list(holders)
        if not self._servers:
            return holders
        filtered = [uid for uid in holders if self.server_allowed(uid)]
        return filtered if filtered else holders

    def server_state(self, uid: str) -> str:
        """Current breaker state for a server (closed when untracked)."""
        breaker = self._servers.get(uid)
        return breaker.state if breaker is not None else BREAKER_CLOSED

    def link_state(self, name: str) -> str:
        """Current breaker state for a link (closed when untracked)."""
        breaker = self._links.get(name)
        return breaker.state if breaker is not None else BREAKER_CLOSED

    @property
    def trip_count(self) -> int:
        """Total open transitions across both kinds."""
        return sum(self.opened_by_kind.values())

    # ------------------------------------------------------------------ #
    # event feeds (wired by the service)
    # ------------------------------------------------------------------ #
    def server_failure(self, uid: str) -> None:
        """One server failure (an offline transition)."""
        self._failure(KIND_SERVER, self._breaker(self._servers, uid), uid)

    def link_failure(self, name: str) -> None:
        """One link failure (an offline transition)."""
        self._failure(KIND_LINK, self._breaker(self._links, name), name)

    def server_success(self, uid: str) -> None:
        """A completed use of the server (closes a half-open probe)."""
        breaker = self._servers.get(uid)
        if breaker is not None and breaker.record_success(self._sim.now):
            self._note(KIND_SERVER, uid, BREAKER_HALF_OPEN, BREAKER_CLOSED)

    def link_success(self, name: str) -> None:
        """A completed transfer over the link (closes a half-open probe)."""
        breaker = self._links.get(name)
        if breaker is not None and breaker.record_success(self._sim.now):
            self._note(KIND_LINK, name, BREAKER_HALF_OPEN, BREAKER_CLOSED)

    def path_success(self, server_uid: str, link_names: Iterable[str]) -> None:
        """A cluster delivered: probe success for the source and its path."""
        self.server_success(server_uid)
        for name in link_names:
            self.link_success(name)

    # ------------------------------------------------------------------ #
    def _breaker(self, table: Dict[str, CircuitBreaker], key: str) -> CircuitBreaker:
        breaker = table.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                key, self._threshold, self._window_s, self._cooldown_s
            )
            table[key] = breaker
        return breaker

    def _failure(self, kind: str, breaker: CircuitBreaker, target: str) -> None:
        was = breaker.state
        if breaker.record_failure(self._sim.now):
            self._note(kind, target, was, BREAKER_OPEN)
            self._sim.schedule(
                breaker.cooldown_s,
                self._probe,
                kind,
                breaker,
                name=f"breaker:{kind}:{target}",
            )

    def _probe(self, kind: str, breaker: CircuitBreaker) -> None:
        if breaker.half_open(self._sim.now):
            self._note(kind, breaker.key, BREAKER_OPEN, BREAKER_HALF_OPEN)
        elif breaker.state == BREAKER_OPEN:
            # A failure while open refreshed the cooldown origin without
            # scheduling a fresh expiry (record_failure returned False
            # there); chase the moved deadline so the breaker can't get
            # stuck open with no probe pending.
            remaining = breaker.opened_at + breaker.cooldown_s - self._sim.now
            self._sim.schedule(
                max(remaining, 0.0),
                self._probe,
                kind,
                breaker,
                name=f"breaker:{kind}:{breaker.key}",
            )

    def _note(self, kind: str, target: str, old: str, new: str) -> None:
        if new == BREAKER_OPEN:
            self.opened_by_kind[kind] += 1
            self._m_opened[kind].inc()
        elif new == BREAKER_CLOSED:
            self.closed_by_kind[kind] += 1
            self._m_closed[kind].inc()
        else:
            self.half_open_by_kind[kind] += 1
            self._m_half_open[kind].inc()
        self.log.append(
            {"at_s": self._sim.now, "kind": kind, "target": target,
             "from": old, "to": new}
        )
        if self.on_transition is not None:
            self.on_transition(kind, target, old, new)
