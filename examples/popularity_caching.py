#!/usr/bin/env python3
"""The "most popular" concept: DMA caches vs alternatives under a regional
Zipf workload.

The paper motivates per-server caches of each region's most-requested
titles ("we meet the requests of the users that are utilizing a certain
server and may have different orientations than other users").  This demo
runs the same day of requests on GRNET under four cache policies and
compares hit behaviour and network transport cost, then shows one server's
cache converging onto its region's favourites.

Run:  python examples/popularity_caching.py
"""

from repro.core.service import ServiceConfig
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.placement import PlacementConfig
from repro.storage.video import VideoTitle
from repro.workload.scenarios import regional_scenario

GRNET_NODES = ["U1", "U2", "U3", "U4", "U5", "U6"]


def build_scenario():
    catalog = [
        VideoTitle(f"t{i:02d}", size_mb=150.0, duration_s=3600.0, name=f"Title #{i}")
        for i in range(18)
    ]
    return regional_scenario(
        GRNET_NODES,
        requests_per_node=30,
        horizon_s=8 * 3600.0,
        zipf_exponent=1.0,
        regional_shift=3,  # each region's tastes rotate by 3 ranks
        seed=23,
        catalog=catalog,
    )


def run(kind: str):
    experiment = ServiceExperiment(
        name=f"cache-{kind}",
        scenario=build_scenario(),
        config=ServiceConfig(
            cluster_mb=50.0,
            disk_count=3,
            disk_capacity_mb=250.0,  # each server caches ~5 of 18 titles
            max_streams=64,
            use_reported_stats=False,
            placement=PlacementConfig(kind=kind),
        ),
        run_until=24 * 3600.0,
    )
    return run_service_experiment(experiment)


def main() -> None:
    print("Regional Zipf workload on GRNET: 18 titles, ~30 requests/node,")
    print("each server's cache holds about 5 titles.\n")

    header = (
        f"{'policy':<12} {'completed':>9} {'local serves':>12} "
        f"{'MB-hops':>9} {'startup':>9} {'QoS-bad':>8}"
    )
    print(header)
    print("-" * len(header))
    results = {}
    for key in ("dma", "lru", "nocache", "fullrep"):
        metrics = run(key).metrics
        results[key] = metrics
        print(
            f"{key:<12} {metrics.completed_count:>9} "
            f"{metrics.local_serve_fraction:>11.0%} "
            f"{metrics.megabyte_hops:>9.0f} "
            f"{metrics.mean_startup_s:>8.0f}s "
            f"{metrics.qos_violation_fraction:>8.1%}"
        )

    saving = results["nocache"].megabyte_hops / results["dma"].megabyte_hops
    print(
        f"\nThe DMA cuts network transport {saving:.2f}x vs serving everything "
        "from origin servers,\nand beats the proxy-style LRU the paper "
        "explicitly contrasts with."
    )

    # Peek inside one server: its cache should hold its region's head.
    result = run("dma")
    server = result.service.servers["U2"]
    print("\nPatra (U2) after the day:")
    print(f"  cached titles : {server.stored_title_ids()}")
    ranking = server.policy.tracker.ranking()[:8]
    print("  request points: " + ", ".join(f"{t}={p}" for t, p in ranking))


if __name__ == "__main__":
    main()
