"""X10 — flash-crowd absorption.

The DMA's "most popular" concept, stress-tested: a crowd of 40 viewers at
one node requests the same title over two hours.  With the DMA, the first
fetch pays the network cost (viewers overlapping that first download still
fetch remotely, then switch to the local copy per cluster once it commits)
and everyone afterwards is served locally; without caching every viewer
drags the title across the backbone and the 2 Mb links collapse.

The control plane under a decision burst is the perf ledger's
``decision_burst`` workload (``benchmarks/ledger/``); memo equivalence is
held by ``tests/properties/test_decision_memo_props.py``.
"""

import pytest

from repro.core.service import ServiceConfig
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.metrics.analysis import analyze_sessions
from repro.storage.video import VideoTitle
from repro.workload.scenarios import flash_crowd_scenario

#: A half-hour news special: modest size so one transfer fits a 2 Mb link.
SPECIAL = VideoTitle("special", size_mb=300.0, duration_s=1_800.0)


def run_crowd(cache_key: str, viewer_count: int = 40, ramp_s: float = 7_200.0):
    scenario = flash_crowd_scenario(
        "U2", SPECIAL, viewer_count=viewer_count, start_s=600.0, ramp_s=ramp_s
    )
    experiment = ServiceExperiment(
        name=f"flash-{cache_key}",
        scenario=scenario,
        config=ServiceConfig(
            cluster_mb=100.0,
            disk_count=2,
            disk_capacity_mb=1_000.0,
            max_streams=256,
            use_reported_stats=False,
        ),
        cache=cache_key,
        seed_origin_uids=["U4"],  # the title starts at Thessaloniki only
        run_until=12 * 3600.0,
    )
    return run_service_experiment(experiment)


@pytest.mark.parametrize("cache_key", ["dma", "nocache"])
def test_x10_crowd_policies(benchmark, show, cache_key):
    result = benchmark.pedantic(run_crowd, args=(cache_key,), rounds=1, iterations=1)
    metrics = result.metrics
    show(
        f"X10[{cache_key:8s}]: {metrics.completed_count}/{metrics.session_count} "
        f"delivered, transport {metrics.megabyte_hops:.0f} MB-hops, "
        f"mean startup {metrics.mean_startup_s:.0f}s, "
        f"qos-violations {metrics.qos_violation_fraction:.2f}"
    )
    assert metrics.completed_count == metrics.session_count


def test_x10_dma_absorbs_the_crowd(benchmark, show):
    def run_pair():
        return run_crowd("dma"), run_crowd("nocache")

    dma_result, nocache_result = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    dma, nocache = dma_result.metrics, nocache_result.metrics

    # With the DMA, remote transport stays within a handful of title
    # transfers (the first viewer plus whoever overlapped its download);
    # without caching it scales with the whole crowd.
    assert dma.megabyte_hops < nocache.megabyte_hops / 4.0
    assert dma.mean_startup_s < nocache.mean_startup_s
    assert dma.qos_violation_fraction <= nocache.qos_violation_fraction + 1e-9

    # The per-link view: the origin route is nearly idle under the DMA.
    dma_links = analyze_sessions(dma_result.service.sessions)
    origin_mb = sum(
        row.megabytes for row in dma_links.link_load
    )
    show(
        f"X10: crowd of 40 -> transport {dma.megabyte_hops:.0f} MB-hops with "
        f"the DMA vs {nocache.megabyte_hops:.0f} without caching "
        f"({nocache.megabyte_hops / dma.megabyte_hops:.1f}x); backbone bytes "
        f"under DMA: {origin_mb:.0f} MB total"
    )

