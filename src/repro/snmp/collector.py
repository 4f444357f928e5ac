"""The periodic SNMP statistics modules.

:class:`NodeStatisticsModule` reproduces the paper's per-server module:
"Every time a predefined time limit expires (1-2 minutes ...) the SMNP
statistics module on every server is responsible for inserting the line
utilization of all the adjacent to the node links used by the VoD network."

:class:`StatisticsService` instantiates one module per node and drives them
all from one periodic task.  Because every link has two endpoints, each link
entry is written twice per period — exactly the benign redundancy the
paper's design implies (last write wins).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.database.access import DatabaseHandle
from repro.database.records import LinkStats
from repro.errors import SnmpError
from repro.network.topology import Topology
from repro.obs.phase import NO_PHASE_TIMER
from repro.obs.registry import NULL_COUNTER, MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTask
from repro.snmp.agent import SnmpAgent
from repro.snmp.counters import counter_delta, delta_to_mbps

#: The paper suggests 1-2 minutes; 90 s is the midpoint default.
DEFAULT_POLL_PERIOD_S = 90.0


class NodeStatisticsModule:
    """One node's statistics module: polls the local agent, writes the DB."""

    def __init__(
        self,
        topology: Topology,
        node_uid: str,
        admin_db: DatabaseHandle,
        start_time: float = 0.0,
    ):
        self._topology = topology
        self.node_uid = node_uid
        self._db = admin_db
        self._agent = SnmpAgent(topology, node_uid, start_time=start_time)
        self._previous: Optional[Tuple[float, Dict[str, Tuple[int, int]]]] = None
        self.samples_written = 0
        #: Writes whose ``used_mbps`` differed from the entry's previous
        #: value — the only writes that can move an LVN weight.
        self.changed_samples = 0

    @property
    def agent(self) -> SnmpAgent:
        """The underlying SNMP agent (exposed for tests)."""
        return self._agent

    def collect(self, now: float) -> Dict[str, LinkStats]:
        """Poll the agent and write per-link utilisation into the database.

        The first poll only establishes the counter baseline; rates are
        produced from the second poll onward, like any real SNMP poller.

        Returns:
            The stats written this round, keyed by link name (empty on the
            baseline poll).
        """
        counters = self._agent.poll(now)
        written: Dict[str, LinkStats] = {}
        if self._previous is not None:
            prev_time, prev_counters = self._previous
            interval = now - prev_time
            if interval <= 0.0:
                raise SnmpError(
                    f"statistics module at {self.node_uid!r}: non-positive "
                    f"poll interval {interval}"
                )
            for link_name, (in_now, out_now) in counters.items():
                # A link first seen this round (runtime expansion) has no
                # baseline yet; treat the current reading as its baseline.
                in_prev, out_prev = prev_counters.get(link_name, (in_now, out_now))
                octets = counter_delta(in_prev, in_now) + counter_delta(out_prev, out_now)
                used_mbps = delta_to_mbps(octets, interval)
                entry = self._db.link_entry(link_name)
                stats = LinkStats(
                    used_mbps=used_mbps,
                    utilization=min(used_mbps / entry.total_bandwidth_mbps, 1.0),
                    timestamp=now,
                )
                if used_mbps != entry.used_mbps:
                    self.changed_samples += 1
                self._db.update_link_stats(link_name, stats)
                written[link_name] = stats
                self.samples_written += 1
        self._previous = (now, counters)
        return written


class StatisticsService:
    """Drives every node's statistics module on a shared period."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        admin_db: DatabaseHandle,
        period_s: float = DEFAULT_POLL_PERIOD_S,
    ):
        if not (period_s > 0.0):
            raise SnmpError(f"poll period must be positive, got {period_s!r}")
        self._sim = sim
        self._topology = topology
        self._db = admin_db
        self._modules: List[NodeStatisticsModule] = [
            NodeStatisticsModule(topology, node.uid, admin_db, start_time=sim.now)
            for node in topology.nodes()
        ]
        self._task = PeriodicTask(sim, period_s, self._collect_all, name="snmp")
        #: Nesting depth of active blackouts (overlapping fault windows
        #: stack); collection rounds are skipped whole while > 0.
        self._blackout_depth = 0
        #: Collection rounds skipped because a blackout was active.
        self.blackout_skips = 0
        self._m_rounds = NULL_COUNTER
        #: Wall-clock timer around one collection round
        #: (obs.phase.snmp_collect_ms); the service swaps in a live
        #: timer when phase profiling is on.
        self.phase_timer = NO_PHASE_TIMER
        self._m_samples = NULL_COUNTER
        self._m_changed = NULL_COUNTER
        self._m_blackout_skips = NULL_COUNTER
        #: Optional listener fired after each successful (non-blacked-out)
        #: collection round.  The service wires the staleness guard's
        #: refresh here so fresh samples clear degraded routing in the
        #: same event that wrote them; blackout-skipped rounds do not
        #: fire it (the guard's own periodic check covers the gap).
        self.on_round: Optional[Callable[[], None]] = None

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Resolve the collection-round / sample counters from a registry."""
        self._m_rounds = registry.counter(
            "snmp.rounds", subsystem="snmp",
            description="collection rounds across all statistics modules",
        )
        self._m_samples = registry.counter(
            "snmp.samples_written", subsystem="snmp",
            description="per-link stats entries written to the database",
        )
        self._m_changed = registry.counter(
            "snmp.changed_samples", subsystem="snmp",
            description="stats writes whose used_mbps differed from the "
            "previous entry (the only ones that can move an LVN weight)",
        )
        self._m_blackout_skips = registry.counter(
            "fault.snmp_blackout_skips", subsystem="snmp",
            description="collection rounds skipped by an injected blackout "
            "(the database serves stale stats meanwhile)",
        )

    def add_node(self, node_uid: str) -> NodeStatisticsModule:
        """Start a statistics module for a node added at runtime."""
        module = NodeStatisticsModule(
            self._topology, node_uid, self._db, start_time=self._sim.now
        )
        self._modules.append(module)
        return module

    @property
    def modules(self) -> List[NodeStatisticsModule]:
        """The per-node statistics modules."""
        return list(self._modules)

    @property
    def period_s(self) -> float:
        """Current poll period in simulated seconds."""
        return self._task.period

    def start(self) -> None:
        """Begin periodic collection; also takes the baseline poll now."""
        self._collect_all()
        self._task.start()

    def stop(self) -> None:
        """Stop periodic collection."""
        self._task.stop()

    # ------------------------------------------------------------------ #
    # blackout (fault-injection surface)
    # ------------------------------------------------------------------ #
    @property
    def blacked_out(self) -> bool:
        """True while at least one injected blackout window is active."""
        return self._blackout_depth > 0

    def blackout(self) -> None:
        """Enter a collector blackout: rounds are skipped whole, agents
        are not even polled, and the limited-access database keeps
        serving its last-written (stale) stats.  Windows nest."""
        self._blackout_depth += 1

    def restore(self) -> None:
        """Leave one blackout window; collection resumes at depth zero.

        The first round after restoration spans the whole dark period
        (counter deltas average over it), exactly like a real poller
        recovering from an outage.
        """
        if self._blackout_depth > 0:
            self._blackout_depth -= 1

    def _collect_all(self) -> None:
        if self._blackout_depth > 0:
            self.blackout_skips += 1
            self._m_blackout_skips.inc()
            return
        t_phase = self.phase_timer.start()
        try:
            now = self._sim.now
            self._m_rounds.inc()
            for module in self._modules:
                changed_before = module.changed_samples
                self._m_samples.inc(len(module.collect(now)))
                self._m_changed.inc(module.changed_samples - changed_before)
        finally:
            self.phase_timer.stop(t_phase)
        if self.on_round is not None:
            self.on_round()
