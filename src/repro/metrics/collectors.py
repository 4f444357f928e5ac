"""Aggregation of session records into experiment metrics.

:func:`summarize_sessions` turns a batch of
:class:`~repro.core.session.SessionRecord` objects into the quantities the
comparison benchmarks report: startup delay, stalls, switches, QoS
violations, hop counts and byte-hops (network cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.session import SessionRecord
from repro.metrics.stats import mean, percentile


@dataclass(frozen=True)
class SessionMetrics:
    """Aggregate metrics over a batch of sessions.

    Every figure but the three counts is over the *completed* sessions
    only: a policy that leaves its worst sessions unfinished reads
    better, so read each figure beside ``completed_count`` /
    ``session_count``.

    Attributes:
        session_count: Sessions considered.
        completed_count: Sessions that delivered every cluster.
        failed_count: Sessions that errored out.
        local_serve_fraction: Fraction of completed sessions fully served
            by the client's home server.
        mean_startup_s / p95_startup_s: Startup-delay stats.
        mean_stall_s: Mean total stall time.
        total_switches: Mid-stream server switches.
        switches_per_session: Mean switches per completed session.
        qos_violation_fraction: Violating clusters over all clusters of
            completed sessions.
        mean_hop_count: Mean path hops weighted per cluster.
        megabyte_hops: Sum over clusters of size_mb * hop_count — the
            network transport cost the caching policies compete on.
    """

    session_count: int
    completed_count: int
    failed_count: int
    local_serve_fraction: float
    mean_startup_s: float
    p95_startup_s: float
    mean_stall_s: float
    total_switches: int
    switches_per_session: float
    qos_violation_fraction: float
    mean_hop_count: float
    megabyte_hops: float


def summarize_sessions(records: Sequence[SessionRecord]) -> SessionMetrics:
    """Aggregate a batch of session records (empty batches allowed)."""
    completed = [r for r in records if r.completed]
    failed = [r for r in records if r.request.finished and not r.completed]

    startups = [r.startup_delay_s for r in completed]
    stalls = [r.stall_s for r in completed]
    switches = sum(r.switch_count for r in completed)

    all_clusters = [c for r in completed for c in r.clusters]
    violations = sum(1 for c in all_clusters if c.qos_violated)
    hops: List[float] = [max(len(c.path_nodes) - 1, 0) for c in all_clusters]
    mb_hops = sum(c.size_mb * max(len(c.path_nodes) - 1, 0) for c in all_clusters)
    local = sum(
        1
        for r in completed
        if all(max(len(c.path_nodes) - 1, 0) == 0 for c in r.clusters)
    )

    return SessionMetrics(
        session_count=len(records),
        completed_count=len(completed),
        failed_count=len(failed),
        local_serve_fraction=(local / len(completed)) if completed else 0.0,
        mean_startup_s=mean(startups) if startups else 0.0,
        p95_startup_s=percentile(startups, 95.0) if startups else 0.0,
        mean_stall_s=mean(stalls) if stalls else 0.0,
        total_switches=switches,
        switches_per_session=(switches / len(completed)) if completed else 0.0,
        qos_violation_fraction=(violations / len(all_clusters)) if all_clusters else 0.0,
        mean_hop_count=mean(hops) if hops else 0.0,
        megabyte_hops=mb_hops,
    )
