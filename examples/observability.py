#!/usr/bin/env python3
"""Observability: watch a simulated day through the telemetry layer.

Runs the quickstart workload with ``observability=True`` so the unified
telemetry layer is live: a metrics registry of counters/gauges/histograms,
a sim-time sampler writing each snapshot as ``sample`` rows, and one
session span per client request, written as a ``span`` row when it
closes: the request's one trail, its per-cluster columns read from the
session record.  A
:class:`~repro.obs.stream.StreamingTelemetry` writes the run into one
in-memory row stream.  Afterwards the script prints the operator summary
read from that stream, a link-utilisation sparkline timeline, and the
top-N hottest cache entries (DMA popularity points per server).

Run:  python examples/observability.py
"""

from repro import Client, ServiceConfig, Simulator, VideoTitle, VoDService
from repro.experiments.report import render_timeline
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.obs import MemoryTelemetrySink, StreamingTelemetry, summarize_telemetry
from repro.obs.export import sample_series


def main() -> None:
    # The quickstart setup, with telemetry switched on: every gauge is
    # sampled each 120 simulated seconds and every request gets a span.
    sim = Simulator(start_time=8 * 3600.0)
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")

    sink = MemoryTelemetrySink()  # one row stream for the whole run
    service = VoDService(
        sim,
        topology,
        ServiceConfig(cluster_mb=50.0, observability=True, telemetry_period_s=120.0),
    )
    streamer = StreamingTelemetry(service, sink)
    streamer.start()
    for i in (1, 2, 3):
        service.seed_title(
            "U4", VideoTitle(f"movie-{i}", size_mb=400.0, duration_s=2700.0)
        )

    service.attach_access_network("10.2.0", "U2")  # Patra
    service.attach_access_network("10.1.0", "U1")  # Athens
    viewers = []
    for n in range(4):
        client = Client(f"patra-{n}", f"10.2.0.{10 + n}")
        service.register_client(client)
        viewers.append(client)
    for n in range(2):
        client = Client(f"athens-{n}", f"10.1.0.{10 + n}")
        service.register_client(client)
        viewers.append(client)
    service.start()
    sim.run(until=sim.now + 2 * service.config.snmp_period_s + 1.0)

    # Two waves an hour apart: movie-1 is the crowd favourite, so the DMA
    # caches it near the viewers and the second wave streams locally.
    for client in viewers:
        service.submit(client, "movie-1")
    service.submit(viewers[0], "movie-2")
    sim.run(until=sim.now + 3600.0)
    for client in viewers[:3]:
        service.submit(client, "movie-1")
    service.submit(viewers[3], "movie-3")
    sim.run(until=sim.now + 4 * 3600.0)

    streamer.finish()
    print(summarize_telemetry(service.obs, sink))

    # Rebuild the backbone links' series from the stream's sample rows
    # and render them as sparklines (the view `python -m repro obs
    # --timeline link.utilization` gives for the canned scenarios).
    rows = [
        (labels.get("link", "?"), series)
        for labels, series in sample_series(sink.rows, "link.utilization")
    ]
    print()
    print(render_timeline(rows, title="link utilization over the day", width=48))

    # "Hottest cache entries": the DMA's popularity points per server,
    # i.e. the request pressure that drives Figure 2's caching decisions.
    entries = []
    for uid in sorted(service.servers):
        server = service.servers[uid]
        cached = set(server.stored_title_ids())
        for title_id, points in server.policy.tracker.ranking():
            entries.append((points, uid, title_id, title_id in cached))
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    print()
    print("hottest cache entries (DMA points)")
    for points, uid, title_id, cached in entries[:5]:
        state = "cached" if cached else "evicted/remote"
        print(f"  {uid} {title_id:<10} {points:3d} points  [{state}]")

    # A span row's cluster columns hold one entry per VRA decision: the
    # cluster it delivered (read from the session record) and the
    # decision's cost, served-locally flag and routing epoch.
    spans = [row for row in sink.rows if row["kind"] == "span"]
    finished = sum(1 for row in spans if row["finished_at"] is not None)
    switches = sum(row["clusters"]["switched"].count(True) for row in spans)
    print()
    print(
        f"spans: {len(spans)} sessions traced, {finished} finished, "
        f"{switches} mid-stream switches"
    )


if __name__ == "__main__":
    main()
