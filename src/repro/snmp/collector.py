"""The periodic SNMP statistics modules.

:class:`NodeStatisticsModule` reproduces the paper's per-server module:
"Every time a predefined time limit expires (1-2 minutes ...) the SMNP
statistics module on every server is responsible for inserting the line
utilization of all the adjacent to the node links used by the VoD network."

:class:`StatisticsService` instantiates one module per node and drives them
all from one periodic task.  The two endpoint modules of a link always
compute the same sample, so a round asks one *reporter* per link — the
earlier-created of the two — and writes the whole round to the database at
once: one store per link, one epoch bump per round (DESIGN.md §5b.14).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.database.access import DatabaseHandle
from repro.database.records import LinkStats
from repro.errors import SnmpError
from repro.network.feed import SNMP_ROUND
from repro.network.topology import Topology
from repro.obs.registry import NULL_COUNTER, MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTask
from repro.snmp.agent import LinkSubset, SnmpAgent
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
        #: Time of the previous poll (None before the baseline poll) and,
        #: per link, ``(poll time, in octets, out octets)`` of its own.
        self._polled_at: Optional[float] = None
        self._previous: Dict[str, Tuple[float, int, int]] = {}
        self.samples_written = 0
        #: Samples whose ``used_mbps`` differed from the entry's previous
        #: value — the only ones that can move an LVN weight.
        self.changed_samples = 0

    @property
    def agent(self) -> SnmpAgent:
        """The underlying SNMP agent (exposed for tests)."""
        return self._agent

    def sample(self, now: float, links: LinkSubset = None) -> Dict[str, LinkStats]:
        """Poll the agent and turn the counter deltas into (unwritten) samples.

        The first poll only establishes the counter baseline (of every
        adjacent link, so a later whole :meth:`collect` has one); rates are
        produced from the second poll onward, like any real SNMP poller.

        Returns:
            The samples, keyed by link name (empty on the baseline poll).
        """
        polled_at = self._polled_at
        if polled_at is not None and now <= polled_at:
            raise SnmpError(
                f"statistics module at {self.node_uid!r}: non-positive "
                f"poll interval {now - polled_at}"
            )
        counters = self._agent.poll(now, None if polled_at is None else links)
        samples: Dict[str, LinkStats] = {}
        if polled_at is not None:
            for link_name, (in_now, out_now) in counters.items():
                # A link first seen this round (runtime expansion) has no
                # baseline yet; treat the current reading as its baseline.
                prev_time, in_prev, out_prev = self._previous.get(
                    link_name, (polled_at, in_now, out_now)
                )
                octets = counter_delta(in_prev, in_now) + counter_delta(out_prev, out_now)
                used_mbps = delta_to_mbps(octets, now - prev_time)
                entry = self._db.link_entry(link_name)
                if used_mbps != entry.used_mbps:
                    self.changed_samples += 1
                samples[link_name] = LinkStats(
                    used_mbps=used_mbps,
                    utilization=min(used_mbps / entry.total_bandwidth_mbps, 1.0),
                    timestamp=now,
                )
            self.samples_written += len(samples)
        self._polled_at = now
        for link_name, (in_now, out_now) in counters.items():
            self._previous[link_name] = (now, in_now, out_now)
        return samples

    def collect(self, now: float) -> Dict[str, LinkStats]:
        """Sample every adjacent link, write the samples into the database
        and return them keyed by link name (none on the baseline poll)."""
        written = self.sample(now)
        self._db.update_link_stats_round(written)
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
        #: Poll period in simulated seconds.
        self.period_s = float(period_s)
        self._task = PeriodicTask(sim, period_s, self._collect_all, name="snmp")
        #: Nesting depth of active blackouts (overlapping fault windows
        #: stack); collection rounds are skipped whole while > 0.
        self._blackout_depth = 0
        #: Collection rounds skipped because a blackout was active.
        self.blackout_skips = 0
        self._m_rounds = NULL_COUNTER
        self._m_samples = NULL_COUNTER
        self._m_changed = NULL_COUNTER
        self._m_blackout_skips = NULL_COUNTER

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
        """Start a statistics module for a node added at runtime (one per
        node: asking for a second raises :class:`SnmpError`)."""
        if any(module.node_uid == node_uid for module in self._modules):
            raise SnmpError(f"node {node_uid!r} already has a statistics module")
        module = NodeStatisticsModule(
            self._topology, node_uid, self._db, start_time=self._sim.now
        )
        self._modules.append(module)
        return module

    @property
    def modules(self) -> List[NodeStatisticsModule]:
        """The per-node statistics modules."""
        return list(self._modules)

    def start(self) -> None:
        """Begin periodic collection; also takes the baseline poll now."""
        self._collect_all()
        self._task.start()

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
        now = self._sim.now
        self._m_rounds.inc()
        # One reporter per link: the earlier-created endpoint module —
        # on a new link's first round the only one past its baseline.
        samples: Dict[str, LinkStats] = {}
        for module in self._modules:
            adjacent = self._topology.links_at(module.node_uid)
            links = [link for link in adjacent if link.name not in samples]
            changed_before = module.changed_samples
            samples.update(module.sample(now, links))
            self._m_changed.inc(module.changed_samples - changed_before)
        self._m_samples.inc(len(samples))
        self._db.update_link_stats_round(samples)
        # A written round publishes SNMP_ROUND (the staleness guard
        # refreshes on it, in the event that wrote the samples); a
        # blacked-out one returned above and publishes nothing.
        self._topology.feed.publish(SNMP_ROUND)
