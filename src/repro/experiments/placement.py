"""Placement-policy comparison experiment (paper-style tables).

Runs the same seeded regional workload on GRNET under each placement
policy — whole-title DMA (paper Figure 2), prefix replication
(arXiv 1003.4049) and popularity-weighted partial caching — and compares
them on the axes the placement literature argues about:

* **hit rate** — placement passes finding the full title (or a usable
  prefix) already local;
* **startup latency** — mean / p95 first-cluster delay, the metric
  prefix caching exists to shrink;
* **network load** — megabyte-hops transported, the metric whole-title
  caching optimises.

:func:`run_placement_experiment` also hosts the replay gate
(``check=True``): the default DMA policy must replay byte-identically
run-to-run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.service import ServiceConfig
from repro.core.session import SessionRecord
from repro.experiments.harness import ServiceExperiment, SweepResult, run_service_experiment
from repro.experiments.report import render_table
from repro.metrics.collectors import SessionMetrics
from repro.placement.base import PlacementConfig
from repro.storage.video import VideoTitle
from repro.workload.scenarios import WorkloadScenario, regional_scenario

#: Simulated clock at experiment start (the GRNET Table 2 morning).
START_TIME_S = 8 * 3600.0

#: The placement kinds the X11 comparison runs, in table order.
COMPARED_KINDS: Tuple[str, ...] = ("dma", "prefix", "partial")


def session_fingerprint(records: Sequence[SessionRecord]) -> str:
    """SHA-256 over a canonical JSON dump of session records.

    Two runs are byte-identical in the replay-gate sense exactly when
    their fingerprints match: every cluster's source, path, timing, size
    and QoS flag plus every session's aggregate metrics are folded in.
    A session's failover count and stall enter only when it failed
    over, so a record without one hashes as it did before they were
    folded in (and the pinned fingerprints of failover-free runs hold).
    """
    canonical = [
        {
            "client": r.request.client_id,
            "home": r.request.home_uid,
            "title": r.request.title_id,
            "submitted": r.request.submitted_at,
            "status": r.request.status.value,
            "reason": r.request.failure_reason,
            "startup_s": r.startup_delay_s,
            "stall_s": r.stall_s,
            "switches": r.switch_count,
            "qos_violations": r.qos_violation_count,
            "completed_at": r.completed_at,
            "retries": r.retry_count,
            "admission_wait_s": r.admission_wait_s,
            "clusters": [
                [
                    c.index,
                    c.server_uid,
                    list(c.path_nodes),
                    c.rate_mbps,
                    c.start,
                    c.end,
                    c.size_mb,
                    c.switched,
                    c.qos_violated,
                ]
                for c in r.clusters
            ],
            **(
                {"failovers": r.failover_count, "failover_stall_s": r.failover_stall_s}
                if r.failover_count
                else {}
            ),
        }
        for r in records
    ]
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PlacementOutcome:
    """One policy's run, reduced to the comparison quantities.

    Attributes:
        kind: The placement kind that ran.
        metrics: Aggregate session metrics of the run.
        passes: Placement passes executed across all servers.
        hits: Passes finding the full title already resident.
        prefix_hits: Passes finding a prefix segment (not the full title)
            already resident.
        stores: Whole-title stores (immediate + replacement).
        prefix_stores: Prefix/partial segment stores.
        evictions: Titles/segments evicted.
        lost_victims: Eviction passes that deleted victim(s) without
            storing the newcomer.
        fingerprint: Session-record fingerprint of the run.
    """

    kind: str
    metrics: SessionMetrics
    passes: int
    hits: int
    prefix_hits: int
    stores: int
    prefix_stores: int
    evictions: int
    lost_victims: int
    fingerprint: str

    @property
    def hit_rate(self) -> float:
        """Full-title hits over placement passes."""
        return self.hits / self.passes if self.passes else 0.0

    @property
    def any_hit_rate(self) -> float:
        """Full *or* prefix hits over placement passes."""
        return (self.hits + self.prefix_hits) / self.passes if self.passes else 0.0


@dataclass(frozen=True)
class PlacementComparison:
    """The full comparison: one outcome per policy plus the gate verdict.

    Attributes:
        outcomes: Per-policy outcomes, in :data:`COMPARED_KINDS` order.
        deterministic: DMA rerun fingerprint matched (None = not checked).
    """

    outcomes: Tuple[PlacementOutcome, ...]
    deterministic: Optional[bool] = None

    @property
    def gates_passed(self) -> bool:
        """True when the replay gate held (vacuously true unchecked)."""
        return self.deterministic is not False


def placement_config(
    kind: str,
    prefix_minutes: float,
    partial_floor: float,
) -> PlacementConfig:
    """The placement config of ``kind``, carrying only the knob that kind
    reads (the others keep their defaults)."""
    if kind == "prefix":
        return PlacementConfig(kind="prefix", prefix_minutes=prefix_minutes)
    if kind == "partial":
        return PlacementConfig(kind="partial", partial_floor=partial_floor)
    return PlacementConfig(kind=kind)


def _policy_tallies(result: SweepResult) -> Dict[str, int]:
    """Sum the per-server placement-policy counters of a finished run."""
    tallies = {
        "passes": 0,
        "hits": 0,
        "prefix_hits": 0,
        "stores": 0,
        "prefix_stores": 0,
        "evictions": 0,
        "lost_victims": 0,
    }
    for server in result.service.servers.values():
        policy = server.policy
        tallies["passes"] += policy.pass_count
        tallies["hits"] += policy.hit_count
        tallies["prefix_hits"] += policy.prefix_hit_count
        tallies["evictions"] += policy.eviction_count
        tallies["lost_victims"] += policy.lost_victims
        counts = policy.action_counts
        tallies["stores"] += counts.get("stored", 0) + counts.get("replaced", 0)
        tallies["prefix_stores"] += counts.get("prefix_stored", 0)
    return tallies


def _run_one(
    scenario: WorkloadScenario,
    config: ServiceConfig,
    kind: str,
) -> SweepResult:
    experiment = ServiceExperiment(
        name=f"placement:{kind}",
        scenario=scenario,
        config=config,
        start_time=START_TIME_S,
    )
    return run_service_experiment(experiment)


def run_placement_experiment(
    requests_per_node: int = 12,
    catalog_size: int = 12,
    seed: int = 23,
    title_mb: float = 400.0,
    title_minutes: float = 60.0,
    cluster_mb: float = 50.0,
    disk_count: int = 2,
    disk_capacity_mb: float = 500.0,
    prefix_minutes: float = 10.0,
    partial_floor: float = 0.1,
    check: bool = False,
) -> PlacementComparison:
    """Run the placement-policy comparison on GRNET.

    Args:
        requests_per_node: Mean requests per GRNET node over the workload.
        catalog_size: Titles in the shared catalog.
        seed: Workload seed (deterministic schedule).
        title_mb / title_minutes: Uniform title size and duration.
        cluster_mb / disk_count / disk_capacity_mb: Server storage shape;
            the defaults fit ~2.5 whole titles per server, so placement
            pressure is real.
        prefix_minutes / partial_floor: Policy knobs.
        check: Also run the replay gate: the DMA run must replay
            byte-identically.
    """
    from repro.network.grnet import build_grnet_topology

    nodes = build_grnet_topology().node_uids()
    catalog = [
        VideoTitle(
            f"title-{i:03d}",
            size_mb=title_mb,
            duration_s=title_minutes * 60.0,
        )
        for i in range(catalog_size)
    ]
    scenario = regional_scenario(
        nodes,
        requests_per_node=requests_per_node,
        seed=seed,
        catalog=catalog,
    )

    def config_for(kind: str) -> ServiceConfig:
        return ServiceConfig(
            cluster_mb=cluster_mb,
            disk_count=disk_count,
            disk_capacity_mb=disk_capacity_mb,
            max_streams=64,
            use_reported_stats=False,
            placement=placement_config(kind, prefix_minutes, partial_floor),
        )

    outcomes: List[PlacementOutcome] = []
    fingerprints: Dict[str, str] = {}
    for kind in COMPARED_KINDS:
        result = _run_one(scenario, config_for(kind), kind)
        tallies = _policy_tallies(result)
        fingerprint = session_fingerprint(result.service.sessions)
        fingerprints[kind] = fingerprint
        outcomes.append(
            PlacementOutcome(
                kind=kind,
                metrics=result.metrics,
                fingerprint=fingerprint,
                **tallies,
            )
        )

    deterministic: Optional[bool] = None
    if check:
        rerun = _run_one(scenario, config_for("dma"), "dma")
        deterministic = (
            session_fingerprint(rerun.service.sessions) == fingerprints["dma"]
        )

    return PlacementComparison(outcomes=tuple(outcomes), deterministic=deterministic)


def render_placement_comparison(comparison: PlacementComparison) -> str:
    """The paper-style comparison table plus the gate verdict line."""
    headers = [
        "Placement",
        "Hit rate",
        "Hit+prefix",
        "Startup mean s",
        "Startup p95 s",
        "MB-hops",
        "Stores",
        "Prefix stores",
        "Evictions",
        "Completed",
    ]
    rows = [
        [
            outcome.kind,
            f"{outcome.hit_rate:.1%}",
            f"{outcome.any_hit_rate:.1%}",
            f"{outcome.metrics.mean_startup_s:.1f}",
            f"{outcome.metrics.p95_startup_s:.1f}",
            f"{outcome.metrics.megabyte_hops:.0f}",
            str(outcome.stores),
            str(outcome.prefix_stores),
            str(outcome.evictions),
            f"{outcome.metrics.completed_count}/{outcome.metrics.session_count}",
        ]
        for outcome in comparison.outcomes
    ]
    lines = [
        render_table(
            headers, rows, title="Placement-policy comparison (GRNET, X11)"
        )
    ]
    if comparison.deterministic is not None:
        lines.append(
            "replay determinism (dma rerun): "
            + ("PASS" if comparison.deterministic else "FAIL")
        )
    return "\n".join(lines)
