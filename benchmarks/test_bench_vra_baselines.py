"""X3 — VRA vs server-selection baselines.

Two levels of comparison:

1. *Decision level* (deterministic): over every (home server, holder set,
   Table 2 instant) combination on GRNET, the VRA's chosen path must have
   the lowest ground-truth LVN cost — it is cost-optimal by construction —
   and the bench quantifies how much worse random / min-hop / static /
   origin-only choices are on the same decision problems.

2. *Service level*: a regional workload runs end to end under each policy
   and the aggregate QoS metrics are reported.

   The QoS comparison between policies (``service_qos``) counts every
   request, not only the completed ones: its QoS-violation fraction is the
   share of sessions that either delivered a cluster below the title's
   playback rate or did not finish by the horizon (failed, or still
   streaming).  An unfinished session at the horizon counts as
   QoS-violated, so a policy cannot read better by leaving its worst
   sessions unfinished.  ``SessionMetrics`` figures, printed per policy by
   ``test_x3_service_level``, stay over the completed sessions only.
"""

import itertools
import random
import zlib
from typing import NamedTuple

import pytest

from repro.baselines.selection import (
    HomeOnlySelection,
    MinHopSelection,
    RandomSelection,
    StaticNearestSelection,
)
from repro.core.lvn import weight_table
from repro.core.service import ServiceConfig
from repro.core.vra import VirtualRoutingAlgorithm
from repro.experiments.casestudy import topology_at
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.network.grnet import SAMPLE_TIMES
from repro.placement import PlacementConfig
from repro.workload.scenarios import regional_scenario

GRNET_NODES = ["U1", "U2", "U3", "U4", "U5", "U6"]


def decision_problems():
    """Every (time, home, 2-or-3-holder set) with home not a holder."""
    problems = []
    for time_label in SAMPLE_TIMES:
        for home in GRNET_NODES:
            others = [uid for uid in GRNET_NODES if uid != home]
            for size in (2, 3):
                for holders in itertools.combinations(others, size):
                    problems.append((time_label, home, holders))
    return problems


def path_cost(topology, weights, nodes):
    return sum(weights[link.name] for link in topology.path_links(list(nodes)))


def test_x3_decision_level_optimality(benchmark, show):
    problems = decision_problems()

    def evaluate_all():
        totals = {"vra": 0.0, "random": 0.0, "minhop": 0.0, "static": 0.0}
        vra_wins_or_ties = 0
        for time_label, home, holders in problems:
            topology = topology_at(time_label)
            weights = weight_table(topology)
            policies = {
                "vra": VirtualRoutingAlgorithm(topology),
                # crc32, not hash(): a str hash changes with PYTHONHASHSEED.
                "random": RandomSelection(
                    topology, rng=random.Random(zlib.crc32(f"{time_label}/{home}".encode()))
                ),
                "minhop": MinHopSelection(topology),
                "static": StaticNearestSelection(topology),
            }
            costs = {}
            for name, policy in policies.items():
                decision = policy.decide(home, "t", holders=list(holders))
                costs[name] = path_cost(topology, weights, decision.path.nodes)
            for name, cost in costs.items():
                totals[name] += cost
            if all(costs["vra"] <= costs[name] + 1e-9 for name in costs):
                vra_wins_or_ties += 1
        return totals, vra_wins_or_ties

    (totals, wins), count = benchmark(evaluate_all), len(problems)
    # The VRA is never beaten on its own metric, on any decision problem.
    assert wins == count
    assert totals["vra"] <= min(totals.values()) + 1e-9
    show(
        f"X3 decision level ({count} problems over 4 Table 2 instants): "
        "total LVN cost "
        + ", ".join(f"{name}={totals[name]:.2f}" for name in sorted(totals))
        + f"; VRA cheapest on {wins}/{count}"
    )
    # Quantified gaps (the 'shape': load-blind choices pay more).
    assert totals["minhop"] >= totals["vra"]
    assert totals["random"] > totals["vra"]


class ServiceQos(NamedTuple):
    """The X3 QoS comparison over every request (module docstring)."""

    qos_violation_fraction: float
    completed: int
    sessions: int


def service_qos(sessions) -> ServiceQos:
    """Sessions with a cluster below the playback rate or unfinished at
    the horizon, over all sessions."""
    violated = sum(1 for r in sessions if not r.completed or r.qos_violation_count)
    completed = sum(1 for r in sessions if r.completed)
    return ServiceQos(violated / len(sessions), completed, len(sessions))


def run_selection_experiment(selection_key: str):
    scenario = regional_scenario(
        GRNET_NODES,
        catalog_size=12,
        requests_per_node=25,
        horizon_s=8 * 3600.0,
        zipf_exponent=0.9,
        seed=31,
    )
    # Two holders of every title so selection actually has choices: the
    # harness seeds title i on node i (round robin), this hook adds node
    # i + 3.  Caching disabled to isolate the selection policy.
    def seed_second_holder(service):
        for index, title in enumerate(scenario.catalog):
            service.seed_title(GRNET_NODES[(index + 3) % len(GRNET_NODES)], title)

    experiment = ServiceExperiment(
        name=f"select-{selection_key}",
        scenario=scenario,
        config=ServiceConfig(
            cluster_mb=128.0,
            disk_count=4,
            disk_capacity_mb=10_000.0,
            max_streams=64,
            use_reported_stats=False,
            placement=PlacementConfig(kind="nocache"),
        ),
        selection=selection_key,
        replay_table2=True,
        start_time=8 * 3600.0,
        run_until=24 * 3600.0,
        seed=7,
        seed_origin_uids=GRNET_NODES,
        service_hook=seed_second_holder,
    )
    return run_service_experiment(experiment)


@pytest.mark.parametrize("selection_key", ["vra", "minhop", "random", "origin:U1"])
def test_x3_service_level(benchmark, show, selection_key):
    metrics = benchmark.pedantic(
        run_selection_experiment, args=(selection_key,), rounds=1, iterations=1
    ).metrics
    assert metrics.completed_count > 0
    # Every figure after the count is over the completed sessions only.
    show(
        f"X3[{selection_key:9s}]: "
        f"qos-violations={metrics.qos_violation_fraction:.3f} "
        f"over completed={metrics.completed_count}/{metrics.session_count} "
        f"stall={metrics.mean_stall_s:.0f}s "
        f"MB-hops={metrics.megabyte_hops:.0f}"
    )


def test_x3_vra_no_worse_qos_than_blind_baselines(benchmark, show):
    def run_three():
        return {
            key: service_qos(run_selection_experiment(key).service.sessions)
            for key in ("vra", "minhop", "random")
        }

    results = benchmark.pedantic(run_three, rounds=1, iterations=1)
    vra = results["vra"]
    for name in ("minhop", "random"):
        assert vra.qos_violation_fraction <= results[name].qos_violation_fraction + 0.02, name
    show(
        "X3 service level QoS-violation fractions over every request: "
        + ", ".join(
            f"{k}={results[k].qos_violation_fraction:.3f} "
            f"(completed {results[k].completed}/{results[k].sessions})"
            for k in sorted(results)
        )
    )
