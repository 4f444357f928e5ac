"""Compiled routing core: cold-path decision throughput vs the python path.

The array-compiled :class:`~repro.network.compiled.TopologySnapshot` targets
the *cold* path — every decision recomputes the LVN table (equations 1-4)
and the shortest-path tree, exactly what a cache-less VRA does per request.
This benchmark gates the direction of that computation's speedup on the
paper's GRNET backbone and on a denser 60-node synthetic backbone (how
much faster is the perf ledger's job: ``backbone200_churn`` ``wall_s``),
and reports end-to-end ``service.decide`` rates (which fold in the shared
service-layer overhead both paths pay) alongside.  The batched event engine
(``schedule_many``) is measured against sequential scheduling as well.

Equivalence is pinned elsewhere (tests/properties/test_compiled_props.py,
tests/integration/test_compiled_equivalence.py); this file is purely about
throughput.
"""

import time

from repro.core.lvn import weight_table_with_nv
from repro.core.service import ServiceConfig, VoDService
from repro.network.compiled import TopologySnapshot
from repro.network.grnet import build_grnet_topology
from repro.network.routing.dijkstra import dijkstra
from repro.network.topologies import random_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle

MOVIE = VideoTitle("movie", size_mb=600.0, duration_s=3_600.0)

SYNTHETIC_NODES = 60
#: Denser than the routing-cache bench's backbone: chords dominate, so the
#: per-decision work is mostly kernel + Dijkstra rather than fixed overhead.
SYNTHETIC_EXTRA_LINKS = 120

GRNET_HOMES = ["U1", "U2", "U3", "U5", "U6"]


def routing_state_rates(topology, homes, count):
    """(compiled rate, python rate) for the per-decision routing core:
    one LVN weight table plus one Dijkstra tree per decision."""
    snapshot = TopologySnapshot(topology)
    snapshot.weight_table(None, 10.0)  # build arrays outside timing
    compiled = python = 0.0
    for _ in range(2):  # best-of-two to shrug off scheduler noise
        start = time.perf_counter()
        for i in range(count):
            table = snapshot.weight_table(None, 10.0)
            snapshot.dijkstra(homes[i % len(homes)], table)
        compiled = max(compiled, count / (time.perf_counter() - start))
        start = time.perf_counter()
        for i in range(count):
            table, _ = weight_table_with_nv(topology, None, 10.0)
            dijkstra(topology, homes[i % len(homes)], lambda link: table[link.name])
        python = max(python, count / (time.perf_counter() - start))
    return compiled, python


def service_decide_rates(topology_factory, origin, homes, count):
    """End-to-end ``service.decide`` rates, compiled on vs off, cache off."""

    def build(compiled):
        service = VoDService(
            Simulator(),
            topology_factory(),
            ServiceConfig(routing_cache_size=0, compiled_routing=compiled),
        )
        service.seed_title(origin, MOVIE)
        service.start()
        return service

    def rate(service):
        best = 0.0
        for _ in range(2):
            start = time.perf_counter()
            for i in range(count):
                service.decide(homes[i % len(homes)], "movie")
            best = max(best, count / (time.perf_counter() - start))
        return best

    return rate(build(True)), rate(build(False))


def test_compiled_core_speedup_grnet(benchmark, show):
    topology = build_grnet_topology()
    (core_fast, core_plain) = benchmark.pedantic(
        routing_state_rates, args=(topology, GRNET_HOMES, 5_000), rounds=1, iterations=1
    )
    svc_fast, svc_plain = service_decide_rates(
        build_grnet_topology, "U4", GRNET_HOMES, 3_000
    )
    show(
        f"Compiled core [GRNET, {topology.node_count} nodes / "
        f"{topology.link_count} links]:\n"
        f"  routing core   {core_fast:>9,.0f} decisions/s compiled vs "
        f"{core_plain:>9,.0f} python ({core_fast / core_plain:.2f}x)\n"
        f"  service.decide {svc_fast:>9,.0f} decisions/s compiled vs "
        f"{svc_plain:>9,.0f} python ({svc_fast / svc_plain:.2f}x)"
    )
    assert core_fast > core_plain
    assert svc_fast > svc_plain


def test_compiled_core_speedup_synthetic(benchmark, show):
    topology = random_topology(SYNTHETIC_NODES, extra_links=SYNTHETIC_EXTRA_LINKS)
    homes = [f"N{i}" for i in range(1, SYNTHETIC_NODES)]
    (core_fast, core_plain) = benchmark.pedantic(
        routing_state_rates, args=(topology, homes, 1_000), rounds=1, iterations=1
    )
    svc_fast, svc_plain = service_decide_rates(
        lambda: random_topology(SYNTHETIC_NODES, extra_links=SYNTHETIC_EXTRA_LINKS),
        "N0",
        homes,
        1_000,
    )
    show(
        f"Compiled core [synthetic, {topology.node_count} nodes / "
        f"{topology.link_count} links]:\n"
        f"  routing core   {core_fast:>9,.0f} decisions/s compiled vs "
        f"{core_plain:>9,.0f} python ({core_fast / core_plain:.2f}x)\n"
        f"  service.decide {svc_fast:>9,.0f} decisions/s compiled vs "
        f"{svc_plain:>9,.0f} python ({svc_fast / svc_plain:.2f}x)"
    )
    assert core_fast > core_plain
    assert svc_fast > svc_plain


def test_engine_batch_scheduling(benchmark, show):
    """schedule_many vs one schedule_at per event, identical event sets."""
    count = 50_000

    def batched():
        sim = Simulator()
        sim.schedule_many(
            [(float(i % 977) + 1.0, (lambda: None)) for i in range(count)]
        )
        return sim

    def sequential():
        sim = Simulator()
        for i in range(count):
            sim.schedule(float(i % 977) + 1.0, lambda: None)
        return sim

    def measure():
        start = time.perf_counter()
        sim_a = batched()
        batch_s = time.perf_counter() - start
        start = time.perf_counter()
        sim_b = sequential()
        seq_s = time.perf_counter() - start
        assert sim_a.pending_count == sim_b.pending_count == count
        return batch_s, seq_s

    batch_s, seq_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    show(
        f"Engine batching [{count:,} events]: schedule_many {batch_s * 1e3:,.1f} ms "
        f"vs sequential {seq_s * 1e3:,.1f} ms ({seq_s / batch_s:.2f}x)"
    )
    assert batch_s < seq_s
