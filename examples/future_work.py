#!/usr/bin/env python3
"""The paper's future-work section, implemented and demonstrated.

Three improvements the paper's conclusions sketch, each runnable here:

1. strip-level distributed caching ("most popular ... imposed on video
   strips") — the ``partial`` placement, whose partial copies serve the
   clusters they hold to any server, against whole-title DMA at the same
   cache budget;
2. server configuration factors in the validation — stream-slot occupancy
   steering the VRA away from busy servers;
3. improved QoS standards — strict admission vs degraded delivery.

Run:  python examples/future_work.py
"""

from repro.core.service import ServiceConfig, VoDService
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.placement import PlacementConfig
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle
from repro.workload.scenarios import regional_scenario

NODES = ["U1", "U2", "U3", "U4", "U5", "U6"]


def grnet_8am():
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    return topology


def demo_strip_caching() -> None:
    print("1. Strip-level distributed caching")
    print("-" * 60)
    catalog = [
        VideoTitle(f"t{i:02d}", size_mb=150.0, duration_s=3600.0) for i in range(18)
    ]
    scenario = regional_scenario(
        NODES, requests_per_node=60, horizon_s=8 * 3600.0,
        zipf_exponent=1.0, regional_shift=3, seed=23, catalog=catalog,
    )
    for kind in ("dma", "partial"):
        # Each node keeps its three origin titles (450 MB, pinned) plus a
        # 400 MB cache the placement policy manages.
        config = ServiceConfig(
            cluster_mb=25.0, disk_count=1, disk_capacity_mb=450.0 + 400.0,
            max_streams=64, use_reported_stats=False,
            placement=PlacementConfig(kind=kind),
        )
        result = run_service_experiment(ServiceExperiment(
            name=kind, scenario=scenario, config=config,
            topology_factory=grnet_8am, seed_origin_uids=NODES,
        ))
        clusters = [c for r in result.service.sessions for c in r.clusters]
        local_mb = sum(c.size_mb for c in clusters if len(c.path_nodes) == 1)
        label = "whole-title DMA  " if kind == "dma" else "partial placement"
        print(
            f"  {label}: byte hit ratio "
            f"{local_mb / sum(c.size_mb for c in clusters):.3f}, "
            f"transport {result.metrics.megabyte_hops:.0f} MB-hops"
        )
    print("  -> partial copies fill the space whole titles strand, and serve")
    print("     the clusters they hold to their neighbours too.\n")


def demo_server_load() -> None:
    print("2. Server configuration factors in the validation")
    print("-" * 60)
    tiny = VideoTitle("m", size_mb=10.0, duration_s=3600.0)  # links barely notice
    for use_load in (False, True):
        sim = Simulator(start_time=8 * 3600.0)
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        service = VoDService(
            sim, topology,
            ServiceConfig(max_streams=8, use_reported_stats=False,
                          use_server_load_in_vra=use_load),
        )
        service.seed_title("U4", tiny)
        service.seed_title("U6", tiny)
        for _ in range(8):
            service.request_by_home("U5", "m")
            sim.run(until=sim.now + 1.0)
        split = {
            uid: server.admission.active_count
            for uid, server in service.servers.items()
            if server.admission.active_count
        }
        sim.run(until=sim.now + 2 * 3600.0)
        label = "with slot-occupancy term" if use_load else "paper eq. (2) only     "
        print(f"  {label}: concurrent streams per server {split}")
    print("  -> occupancy in the weights spreads load before slots run out.\n")


def demo_strict_qos() -> None:
    print("3. Strict QoS admission")
    print("-" * 60)
    movie = VideoTitle("m", size_mb=450.0, duration_s=3600.0)  # 1 Mbps
    for strict in (False, True):
        sim = Simulator(start_time=8 * 3600.0)
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")  # two sustainable paths exist
        service = VoDService(
            sim, topology,
            ServiceConfig(cluster_mb=150.0, use_reported_stats=False,
                          strict_qos_admission=strict),
        )
        service.seed_title("U4", movie)
        for _ in range(6):  # requests arrive seconds apart
            service.request_by_home("U2", "m")
            sim.run(until=sim.now + 5.0)  # earlier streams reserve first
        sim.run(until=sim.now + 8 * 3600.0)
        blocked = sum(
            1 for r in service.sessions
            if r.request.failure_reason
            and r.request.failure_reason.startswith("qos-blocked")
        )
        degraded = sum(
            1 for r in service.sessions if r.completed and r.qos_violation_count
        )
        completed = sum(1 for r in service.sessions if r.completed)
        mode = "strict admission " if strict else "paper (degrade)  "
        print(
            f"  {mode}: {completed} delivered ({degraded} below playback "
            f"rate), {blocked} blocked at admission"
        )
    print("  -> blocking trades availability for clean playback.")


if __name__ == "__main__":
    demo_strip_caching()
    demo_server_load()
    demo_strict_qos()
