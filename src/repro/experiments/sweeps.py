"""Packaged ablation scenarios.

The *better-source-appears* scenario is the deterministic distillation of
the paper's dynamic-switching narrative: a client at Patra starts a long
download from Thessaloniki; mid-stream the route to Thessaloniki congests
while a fresh copy appears at Athens.  A per-cluster VRA re-decision (the
paper's behaviour) escapes the congestion; a frozen decision rides it to
the end.  Used by the X1 switching ablation, the X4 cluster-size sweep and
the ``sweep-cluster-size`` CLI command.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.core.service import ServiceConfig, VoDService
from repro.core.session import SessionRecord
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle

#: The long title downloaded in the switching scenarios: 1.5 GB over 2 h
#: (bitrate ~1.67 Mbps — fits an uncongested 2 Mb link, starves on the
#: poisoned ones).
SWITCHING_TITLE = VideoTitle("feature", size_mb=1_500.0, duration_s=7_200.0)

#: Default cluster sizes for the X4 sweep: 60, 15, 6, 3 and 1 cluster(s).
DEFAULT_SWEEP_CLUSTERS_MB: Tuple[float, ...] = (25.0, 100.0, 250.0, 500.0, 1_500.0)


def run_better_source_scenario(
    cluster_mb: float,
    decide_wrapper: Optional[Callable] = None,
    poison_at_s: float = 1_200.0,
) -> SessionRecord:
    """One deterministic session through the better-source-appears story.

    Args:
        cluster_mb: Striping cluster size (= switching granularity).
        decide_wrapper: Optional switching baseline (e.g. ``NeverSwitch``).
        poison_at_s: When, after the request, the U2-U3-U4 route congests
            and the Athens copy appears.

    Returns:
        The finished session record.
    """
    sim = Simulator(start_time=8 * 3600.0)
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    service = VoDService(
        sim,
        topology,
        ServiceConfig(
            cluster_mb=cluster_mb,
            disk_count=4,
            disk_capacity_mb=5_000.0,
            use_reported_stats=False,
        ),
    )
    service.decide_wrapper = decide_wrapper
    service.seed_title("U4", SWITCHING_TITLE)
    _, session, _ = service.request_by_home("U2", SWITCHING_TITLE.title_id)

    def poison_and_seed():
        # Congest both hops of the U2,U3,U4 route almost completely...
        topology.link_named("Patra-Ioannina").set_background_mbps(1.95)
        topology.link_named("Thessaloniki-Ioannina").set_background_mbps(1.95)
        # ...and make a pristine copy available one idle 2 Mb hop away.
        service.servers["U1"].seed_title(SWITCHING_TITLE)

    sim.schedule(poison_at_s, poison_and_seed)
    sim.run(until=sim.now + 14 * 24 * 3600.0)
    return session.record


def better_source_sweep(
    cluster_sizes_mb: Sequence[float] = DEFAULT_SWEEP_CLUSTERS_MB,
) -> Iterator[Tuple[float, SessionRecord]]:
    """Run the scenario once per cluster size, in order, yielding (c, record)."""
    for cluster_mb in map(float, cluster_sizes_mb):
        yield cluster_mb, run_better_source_scenario(cluster_mb)
