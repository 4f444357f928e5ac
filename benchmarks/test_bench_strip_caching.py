"""X5 — strip-level distributed caching (the paper's future work #2).

"We could have even better results if the various videos were stripped
not on the hard disks of one server but of different servers according to
the popularity ... the most popular technique ... will not be imposed on
whole videos but on video strips."

The live service runs it: under the ``partial`` and ``prefix`` placements
a server keeps leading segments of titles, each segment is a holder of the
clusters (strips) it covers, and every cluster's VRA decision picks the
cheapest server holding that cluster — the home's own segment, a
neighbour's, or a full holder.  This bench replays one regional Zipf
workload on GRNET under whole-title DMA, ``partial`` and ``prefix`` at the
same per-server cache budget, and sweeps the budget.  Each node keeps its
three origin titles (pinned, outside the budget) on a one-disk array of
origin + budget megabytes.

Reported per run: the byte hit ratio (megabytes served by the client's
home server over megabytes delivered), the megabyte-hops transported, and
the cluster decisions a *remote* partial copy sourced.
"""

from typing import NamedTuple

from repro.core.service import ServiceConfig
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.placement import PlacementConfig
from repro.storage.video import VideoTitle
from repro.workload.scenarios import regional_scenario

NODES = ["U1", "U2", "U3", "U4", "U5", "U6"]
TITLE_MB = 150.0
ORIGIN_MB = 3 * TITLE_MB  # 18 titles seeded round robin over six nodes
BUDGETS = [150.0, 250.0, 400.0, 700.0, 1_300.0]
KINDS = ("dma", "partial", "prefix")


class X5Row(NamedTuple):
    byte_hit_ratio: float
    megabyte_hops: float
    remote_partial_decisions: int
    completed: int
    sessions: int


def grnet_8am():
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    return topology


def build_workload():
    catalog = [
        VideoTitle(f"t{i:02d}", size_mb=TITLE_MB, duration_s=3600.0) for i in range(18)
    ]
    return regional_scenario(
        NODES,
        requests_per_node=60,
        horizon_s=8 * 3600.0,
        zipf_exponent=1.0,
        regional_shift=3,
        seed=23,
        catalog=catalog,
    )


def run_kind(kind: str, cache_mb: float) -> X5Row:
    remote_partial = []

    def count_remote_partial(service):
        def wrap(decide):
            def decide_cluster(cluster):
                decision = decide(cluster)
                if not decision.served_locally and decision.chosen_uid not in (
                    service.database.full_holders(decision.title_id)
                ):
                    remote_partial.append(cluster)
                return decision

            return decide_cluster

        service.decide_wrapper = wrap

    config = ServiceConfig(
        cluster_mb=25.0,
        disk_count=1,
        disk_capacity_mb=ORIGIN_MB + cache_mb,
        max_streams=64,
        use_reported_stats=False,
        placement=PlacementConfig(kind=kind),
    )
    result = run_service_experiment(
        ServiceExperiment(
            name=f"x5:{kind}:{cache_mb:.0f}",
            scenario=build_workload(),
            config=config,
            topology_factory=grnet_8am,
            seed_origin_uids=NODES,
            service_hook=count_remote_partial,
        )
    )
    sessions = result.service.sessions
    clusters = [c for record in sessions for c in record.clusters]
    delivered = sum(c.size_mb for c in clusters)
    return X5Row(
        byte_hit_ratio=sum(c.size_mb for c in clusters if len(c.path_nodes) == 1) / delivered,
        megabyte_hops=sum(c.size_mb * (len(c.path_nodes) - 1) for c in clusters),
        remote_partial_decisions=len(remote_partial),
        completed=sum(1 for record in sessions if record.completed),
        sessions=len(sessions),
    )


def test_x5_partial_vs_dma_at_awkward_budget(benchmark, show):
    def run_pair():
        return run_kind("partial", 400.0), run_kind("dma", 400.0)

    partial, dma = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    # 400 MB holds 2.67 titles: whole-title caching strands 100 MB.
    assert partial.completed == partial.sessions and dma.completed == dma.sessions
    assert partial.byte_hit_ratio > dma.byte_hit_ratio
    assert partial.megabyte_hops < dma.megabyte_hops
    # Partial copies are sources for their neighbours too.
    assert partial.remote_partial_decisions > 0 == dma.remote_partial_decisions
    show(
        f"X5 @400MB budget: partial hit={partial.byte_hit_ratio:.3f} "
        f"MB-hops={partial.megabyte_hops:.0f} "
        f"(remote partial sources {partial.remote_partial_decisions}) | dma "
        f"hit={dma.byte_hit_ratio:.3f} MB-hops={dma.megabyte_hops:.0f} "
        f"-> partial saves {1 - partial.megabyte_hops / dma.megabyte_hops:.1%} transport"
    )


def test_x5_budget_sweep(benchmark, show):
    def sweep():
        return [(budget, {kind: run_kind(kind, budget) for kind in KINDS}) for budget in BUDGETS]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "X5 budget sweep through the service (18 x 150 MB titles, Zipf(1.0), "
        "regional shift 3; hit / MB-hops / remote partial sources):",
        f"  {'budget MB':>9} " + " ".join(f"{kind:>24}" for kind in KINDS),
    ]
    for budget, runs in rows:
        lines.append(
            f"  {budget:>9.0f} "
            + " ".join(
                f"{run.byte_hit_ratio:>8.3f} {run.megabyte_hops:>8.0f} "
                f"{run.remote_partial_decisions:>6}"
                for run in runs.values()
            )
        )
        # Partial caching never loses to whole-title caching on hits.
        assert runs["partial"].byte_hit_ratio >= runs["dma"].byte_hit_ratio - 1e-9, budget
    # Its hit ratio grows with the budget.
    partial_hits = [runs["partial"].byte_hit_ratio for _, runs in rows]
    assert partial_hits == sorted(partial_hits)
    show("\n".join(lines))
