"""Compiled routing core changes no decision — full-service equivalence.

``ServiceConfig.compiled_routing`` swaps the VRA's weight/Dijkstra kernels
for the array-compiled :class:`~repro.network.compiled.TopologySnapshot`.
The contract is *bit-for-bit* service-level equivalence: the same scenario
run compiled and pure-python must produce identical VRA decisions (server,
path, cost), identical per-cluster delivery records, and identical session
outcomes — across a flash crowd, a link-churn storm, a churning 200-node
backbone, and a seeded chaos run with fault injection.
"""

import random

import pytest

from repro.core.service import ServiceConfig
from repro.experiments.harness import ServiceExperiment, build_service
from repro.experiments.resilience import run_resilience_experiment
from repro.network.grnet import build_grnet_topology
from repro.network.topologies import random_topology
from repro.storage.video import VideoTitle
from repro.workload.scenarios import flash_crowd_scenario, regional_scenario

SPECIAL = VideoTitle("special", size_mb=200.0, duration_s=1_200.0)
GRNET_UIDS = ["U1", "U2", "U3", "U4", "U5", "U6"]


def capture_decisions(service, sink):
    def wrap(decide):
        def wrapped():
            decision = decide()
            sink.append(
                (
                    decision.home_uid,
                    decision.title_id,
                    decision.chosen_uid,
                    decision.path.nodes,
                    repr(decision.cost),
                )
            )
            return decision

        return wrapped

    service.decide_wrapper = wrap


def session_fingerprint(service):
    return [
        (
            record.request.client_id,
            record.request.title_id,
            record.request.status.value,
            record.retry_count,
            record.recovered,
            tuple(record.servers_used),
            [(c.index, c.server_uid, c.path_nodes) for c in record.clusters],
        )
        for record in service.sessions
    ]


def run_scenario(scenario, compiled, churn=None, run_until=5 * 3600.0,
                 disk_count=2, disk_capacity_mb=1_000.0,
                 topology_factory=build_grnet_topology, seed_origin_uids=("U4",)):
    experiment = ServiceExperiment(
        name=f"compiled-{compiled}",
        scenario=scenario,
        config=ServiceConfig(
            cluster_mb=50.0,
            disk_count=disk_count,
            disk_capacity_mb=disk_capacity_mb,
            max_streams=64,
            use_reported_stats=True,
            compiled_routing=compiled,
        ),
        topology_factory=topology_factory,
        seed_origin_uids=list(seed_origin_uids),
        run_until=run_until,
    )
    service = build_service(experiment)
    decisions = []
    capture_decisions(service, decisions)
    service.start()
    service.sim.schedule_many(
        (
            (
                event.time_s,
                lambda e=event: service.request_by_home(
                    e.home_uid, e.title_id, e.client_id
                ),
                (),
                f"request:{event.client_id}",
            )
            for event in scenario.events
        ),
        absolute=True,
    )
    if churn is not None:
        churn(service)
    service.sim.run(until=run_until)
    return decisions, session_fingerprint(service)


def test_flash_crowd_bit_identical():
    def scenario():
        return flash_crowd_scenario(
            "U2", SPECIAL, viewer_count=12, start_s=300.0, ramp_s=1_800.0
        )

    fast = run_scenario(scenario(), compiled=True)
    plain = run_scenario(scenario(), compiled=False)
    assert fast == plain
    assert len(fast[0]) > 0
    assert all(clusters for *_, clusters in fast[1])


def test_link_churn_bit_identical():
    """Regional load with a deterministic link-flap/traffic storm mid-run:
    snapshot refreshes (online-mask and traffic) must track every flip."""

    def scenario():
        return regional_scenario(
            GRNET_UIDS, requests_per_node=3, horizon_s=3_600.0, seed=23
        )

    def churn(service):
        topo = service.topology
        link_names = [link.name for link in topo.links()]

        def flap(name):
            link = topo.link_named(name)
            link.online = not link.online

        def load(name, mbps):
            topo.link_named(name).set_background_mbps(mbps)

        entries = []
        for i, name in enumerate(link_names):
            entries.append((600.0 + 120.0 * i, flap, (name,), f"fail:{name}"))
            entries.append((900.0 + 120.0 * i, flap, (name,), f"heal:{name}"))
            entries.append((1_000.0 + 60.0 * i, load, (name, 2.0 + 0.5 * i), f"load:{name}"))
        service.sim.schedule_many(entries, absolute=True)

    fast = run_scenario(
        scenario(), compiled=True, churn=churn, disk_count=4, disk_capacity_mb=24_000.0
    )
    plain = run_scenario(
        scenario(), compiled=False, churn=churn, disk_count=4, disk_capacity_mb=24_000.0
    )
    assert fast == plain
    assert len(fast[0]) > 0


def backbone200():
    """The 200-node backbone of the ledger's ``backbone200_churn``."""
    return random_topology(200, extra_links=300, capacity_mbps=34.0, rng=random.Random(2000))


def test_backbone200_churn_bit_identical():
    """The ledger's ``backbone200_churn``, scaled down: short clips on the
    200-node backbone while 25 links' traffic is re-drawn every 60 s."""
    uids = list(backbone200().node_uids())
    catalog = [VideoTitle(f"clip-{i:02d}", size_mb=100.0, duration_s=300.0) for i in range(20)]

    def scenario():
        return regional_scenario(
            uids, requests_per_node=1, horizon_s=900.0, seed=42, catalog=catalog
        )

    def churn(service):
        rng = random.Random(42)
        links = list(service.topology.links())

        def redraw():
            for link in rng.sample(links, 25):
                link.set_background_mbps(rng.uniform(0.0, 0.8) * link.capacity_mbps)

        service.sim.schedule_many(
            ((60.0 * i, redraw, (), "churn:tick") for i in range(1, 20)), absolute=True
        )

    kwargs = dict(
        churn=churn, run_until=2_400.0, topology_factory=backbone200,
        seed_origin_uids=uids[::10],
    )
    fast = run_scenario(scenario(), compiled=True, **kwargs)
    plain = run_scenario(scenario(), compiled=False, **kwargs)
    assert fast == plain
    assert len(fast[0]) > len(fast[1]) > 100


@pytest.mark.parametrize("seed", [13, 29])
def test_chaos_run_bit_identical(seed):
    """Seeded fault storm (crashes, flaps, degrades, SNMP blackouts):
    compiled and python runs must agree on every session and the report."""

    def config(compiled):
        return ServiceConfig(
            retry_attempts=5,
            retry_backoff_s=20.0,
            compiled_routing=compiled,
        )

    kwargs = dict(
        seed=seed,
        duration_s=1_800.0,
        requests_per_node=3,
        link_flap_rate_per_h=6.0,
        link_degrade_rate_per_h=6.0,
        server_crash_rate_per_h=4.0,
        disk_failure_rate_per_h=2.0,
        snmp_blackout_rate_per_h=2.0,
        mean_fault_duration_s=180.0,
    )
    fast = run_resilience_experiment(config=config(True), **kwargs)
    plain = run_resilience_experiment(config=config(False), **kwargs)
    assert fast.report == plain.report
    assert fast.injector.log == plain.injector.log
    assert session_fingerprint(fast.service) == session_fingerprint(plain.service)
