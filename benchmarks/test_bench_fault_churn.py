"""Routing-cache behaviour under a link-flap fault storm.

A flapping link is the worst case for the epoch-versioned routing
cache: every transition bumps ``state_version``, so each flap forces an
epoch change between decisions, and an epoch change drops the LVN table
and every cached Dijkstra tree.

The storm comes from the fault-injection subsystem itself: a seeded
:class:`~repro.faults.FaultSchedule` of link flaps replayed by a
:class:`~repro.faults.FaultInjector` on the sim clock.  Running the
*same* seeded schedule against a cache-less service keeps the decision
streams comparable, and the bit-for-bit equivalence assert inside
``measure`` is the real acceptance criterion — a cache that is fast but
wrong under churn would stream over a dead link.

Acceptance bar: decisions stay bit-for-bit identical (including
identical refusals while a storm severs every path).  Rates and hit
rates are printed, not gated: on six nodes the cache is worth about
nothing under churn, with or without keeping trees across epochs
(DESIGN.md §5b.7).

A third service runs the same storm with the whole-decision memo on
top: it must stay bit-for-bit too.  A flap storm is the memo's worst
case — every flap moves its token and clears it — so its hit rate is
reported, not gated.
"""

import time

from repro.core.service import ServiceConfig, VoDService
from repro.errors import RoutingError
from repro.experiments.report import render_routing_cache
from repro.faults import FaultInjector, FaultSchedule
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle

MOVIE = VideoTitle("movie", size_mb=600.0, duration_s=3_600.0)

HOMES = ("U1", "U2", "U3", "U5", "U6")
DECISIONS = 600
STEP_S = 10.0  # sim-time between decisions; flaps land in the gaps
FLAP_RATE_PER_H = 120.0  # ~one flap every 30 s of sim time
MEAN_FLAP_S = 60.0
STORM_SEED = 23


def build_service(routing_cache_size=128, decision_cache_size=0):
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    service = VoDService(
        Simulator(),
        topology,
        ServiceConfig(
            routing_cache_size=routing_cache_size,
            decision_cache_size=decision_cache_size,
            use_reported_stats=False,
        ),
    )
    service.seed_title("U4", MOVIE)
    return service


def flap_schedule():
    topology = build_grnet_topology()
    return FaultSchedule.seeded(
        STORM_SEED,
        DECISIONS * STEP_S,
        link_names=[link.name for link in topology.links()],
        link_flap_rate_per_h=FLAP_RATE_PER_H,
        mean_fault_duration_s=MEAN_FLAP_S,
    )


def churn_rate(service, schedule):
    """Decisions/sec with the injector replaying the storm in between.

    Returns (rate, decision log) so callers can assert equivalence.  A
    storm can sever every path to the holder; identical refusals count
    as identical decisions.
    """
    FaultInjector(service, schedule).start()
    sim = service.sim
    decisions = []
    start = time.perf_counter()
    for i in range(DECISIONS):
        sim.run(until=(i + 1) * STEP_S)
        try:
            d = service.decide(HOMES[i % len(HOMES)], "movie")
        except RoutingError as exc:
            decisions.append(("error", str(exc)))
        else:
            decisions.append((d.home_uid, d.chosen_uid, d.path.nodes, d.cost))
    return DECISIONS / (time.perf_counter() - start), decisions


def measure():
    schedule = flap_schedule()
    assert len(schedule) > 0  # the storm actually storms
    cold = build_service(routing_cache_size=0)
    cached = build_service()
    memo = build_service(decision_cache_size=128)
    for home in HOMES:  # warm all caches before timing
        cold.decide(home, "movie")
        cached.decide(home, "movie")
        memo.decide(home, "movie")
    cold_rate, cold_decisions = churn_rate(cold, schedule)
    cached_rate, cached_decisions = churn_rate(cached, schedule)
    memo_rate, memo_decisions = churn_rate(memo, schedule)
    assert cached_decisions == cold_decisions  # bit-for-bit under the storm
    assert memo_decisions == cold_decisions  # ... with the decision memo too
    return (
        cold_rate,
        cached_rate,
        memo_rate,
        cached.vra.cache_stats,
        memo.snapshot()["decision_cache"],
    )


def test_fault_churn_cache_behaviour(benchmark, show):
    cold_rate, cached_rate, memo_rate, stats, memo_stats = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    show(
        f"Fault churn [GRNET, seeded link-flap storm, "
        f"{FLAP_RATE_PER_H:.0f} flaps/h]: {cold_rate:,.0f} decisions/s "
        f"cache-less vs {cached_rate:,.0f} cached "
        f"({cached_rate / cold_rate:.1f}x) vs {memo_rate:,.0f} with the "
        f"decision memo, routing hit rate {stats.hit_rate:.1%}, "
        f"decision-memo hit rate {memo_stats['hit_rate']:.1%}\n"
        + render_routing_cache(stats, title="Link-flap churn cache counters")
    )
