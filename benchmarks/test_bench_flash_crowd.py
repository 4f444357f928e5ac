"""X10 — flash-crowd absorption, plus the decision-path burst benchmark.

The DMA's "most popular" concept, stress-tested: a crowd of 40 viewers at
one node requests the same title over two hours.  With the DMA, the first
fetch pays the network cost (viewers overlapping that first download still
fetch remotely, then switch to the local copy per cluster once it commits)
and everyone afterwards is served locally; without caching every viewer
drags the title across the backbone and the 2 Mb links collapse.

The second half measures the *control plane* under the same pressure: a
burst of identical requests is exactly the workload the whole-decision
memo was built for — between faults and SNMP rounds nothing its
freshness token covers moves, so the service answers each (home, title)
pair from the memo instead of re-running the poll + LVN + Dijkstra + the
min-cost scan per viewer.  Acceptance: decisions bit-for-bit identical
across cache-off / routing-cache-only / decision-memo, and the warm
decision-memo rate at least 5x the routing-cache-only rate of the same
run (the CI smoke gate).
"""

import time

import pytest

from repro.core.service import ServiceConfig, VoDService
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.metrics.analysis import analyze_sessions
from repro.network.grnet import build_grnet_topology
from repro.sim.engine import Simulator
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


# --------------------------------------------------------------------- #
# Decision-path burst throughput
# --------------------------------------------------------------------- #

MOVIE = VideoTitle("movie", size_mb=600.0, duration_s=3_600.0)
BURST_HOMES = ["U1", "U2", "U3", "U5", "U6"]


def build_decision_service(routing_cache_size, decision_cache_size):
    service = VoDService(
        Simulator(),
        build_grnet_topology(),
        ServiceConfig(
            routing_cache_size=routing_cache_size,
            decision_cache_size=decision_cache_size,
            use_reported_stats=False,
        ),
    )
    service.seed_title("U4", MOVIE)
    service.start()
    return service


def burst(service, count):
    """(decisions/s, fingerprints) for ``count`` flash-crowd decisions."""
    fingerprints = []
    start = time.perf_counter()
    for i in range(count):
        d = service.decide(BURST_HOMES[i % len(BURST_HOMES)], "movie")
        fingerprints.append((d.home_uid, d.chosen_uid, d.path.nodes, d.cost))
    return count / (time.perf_counter() - start), fingerprints


def measure_burst(count):
    """Burst rates for cache-off / routing-cache-only / decision-memo."""
    off = build_decision_service(0, 0)
    routing = build_decision_service(128, 0)
    decision = build_decision_service(128, 256)
    for home in BURST_HOMES:  # warm both memo layers before timing
        routing.decide(home, "movie")
        decision.decide(home, "movie")
    off_rate, off_prints = burst(off, count)
    routing_rate, routing_prints = burst(routing, count)
    decision_rate, decision_prints = burst(decision, count)
    # The acceptance criterion under all the speed: caching layers must
    # be invisible in the decisions themselves.
    assert decision_prints == routing_prints == off_prints
    return off_rate, routing_rate, decision_rate, decision.snapshot()["decision_cache"]


@pytest.mark.parametrize("count", [1_000, 10_000])
def test_flash_crowd_decision_burst(benchmark, show, count):
    off_rate, routing_rate, decision_rate, stats = benchmark.pedantic(
        measure_burst, args=(count,), rounds=1, iterations=1
    )
    show(
        f"Flash-crowd burst [{count:,} decisions, GRNET]: "
        f"{off_rate:,.0f}/s cache-off, {routing_rate:,.0f}/s routing-cache, "
        f"{decision_rate:,.0f}/s decision-memo "
        f"({decision_rate / routing_rate:.1f}x over routing-cache); memo "
        f"{stats['hits']:,} hits / {stats['misses']:,} misses"
    )
    assert stats is not None and stats["hit_rate"] > 0.9
    # CI smoke gate: warm whole-decision memo at least 5x the
    # routing-cache-only path of the same run, on the larger burst.
    if count >= 10_000:
        assert decision_rate >= 5.0 * routing_rate
