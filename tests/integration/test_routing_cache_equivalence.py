"""Equivalence of the VRA's epoch memo.

The whole point of the memo is that it changes *nothing* about routed
decisions — only how often they are recomputed.  These tests run a full
flash-crowd service experiment (dynamic per-cluster switching on) twice,
on the default path and on the reference path (``compiled_routing=False``:
no memo), and require every VRA decision —
chosen server, path and cost — and every delivered cluster to be
identical.
"""

import pytest

from repro.core.service import ServiceConfig
from repro.experiments.harness import ServiceExperiment, build_service
from repro.storage.video import VideoTitle
from repro.workload.scenarios import flash_crowd_scenario

SPECIAL = VideoTitle("special", size_mb=200.0, duration_s=1_200.0)


def run_flash_crowd(compiled_routing: bool, use_reported_stats: bool):
    """One flash-crowd run; returns (decision log, session records)."""
    scenario = flash_crowd_scenario(
        "U2", SPECIAL, viewer_count=12, start_s=300.0, ramp_s=1_800.0
    )
    experiment = ServiceExperiment(
        name=f"equiv-compiled{compiled_routing}",
        scenario=scenario,
        config=ServiceConfig(
            cluster_mb=50.0,
            disk_count=2,
            disk_capacity_mb=1_000.0,
            max_streams=64,
            use_reported_stats=use_reported_stats,
            compiled_routing=compiled_routing,
        ),
        seed_origin_uids=["U4"],
        run_until=5 * 3600.0,
    )
    service = build_service(experiment)
    decisions = []

    def capture(decide):
        def wrapped(cluster):
            decision = decide(cluster)
            decisions.append(
                (
                    decision.home_uid,
                    decision.title_id,
                    decision.chosen_uid,
                    decision.path.nodes,
                    decision.cost,
                )
            )
            return decision

        return wrapped

    service.decide_wrapper = capture
    service.start()
    for event in scenario.events:
        service.sim.schedule_at(
            event.time_s,
            lambda e=event: service.request_by_home(e.home_uid, e.title_id, e.client_id),
            name=f"request:{event.client_id}",
        )
    service.sim.run(until=5 * 3600.0)
    clusters = [
        [
            (record.index, record.server_uid, record.path_nodes)
            for record in session.clusters
        ]
        for session in service.sessions
    ]
    return decisions, clusters, service


@pytest.mark.parametrize("use_reported_stats", [True, False])
def test_flash_crowd_decisions_identical_with_and_without_cache(use_reported_stats):
    cached_decisions, cached_clusters, cached_service = run_flash_crowd(
        True, use_reported_stats
    )
    plain_decisions, plain_clusters, plain_service = run_flash_crowd(
        False, use_reported_stats
    )

    assert len(cached_decisions) == len(plain_decisions) > 0
    assert cached_decisions == plain_decisions
    assert cached_clusters == plain_clusters
    # Every session actually streamed (the scenario is feasible).
    assert all(cached_clusters)

    stats = cached_service.vra.cache_stats
    assert plain_service.vra.cache_stats is None
    if use_reported_stats:
        # Between SNMP rounds every per-cluster recomputation is a hit.
        assert stats.hits > 0
        assert stats.invalidations > 0  # SNMP rounds landed during the run
