"""Conservation invariants hold after every event of two small seeded runs.

One run is the paper's deployment: GRNET, whole-title DMA, Table 2
background traffic, small disks so titles are evicted.  The other is a
fault storm with the interacting layers all on: mid-stream failover,
partial placement, the admission queue and the staleness guard.  After
each ``sim.step()`` :func:`tests.invariants.check_invariants` must find
nothing broken.
"""

from repro.core.service import ServiceConfig
from repro.experiments.harness import ServiceExperiment, build_service
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.network.grnet import build_grnet_topology
from repro.placement.base import PlacementConfig
from repro.storage.video import VideoTitle
from repro.workload.scenarios import regional_scenario
from repro.workload.traces import Table2Replayer
from tests.invariants import check_invariants

HORIZON_S = 2 * 3600.0


def catalog(count):
    return [VideoTitle(f"t{i:02d}", size_mb=150.0, duration_s=1_800.0) for i in range(count)]


def stepped(service, until_s, requests):
    """Start ``service``, submit ``requests`` on time and step the engine to
    ``until_s``, checking the invariants after every event; returns the
    number of events stepped."""
    sim = service.sim
    for event in requests:
        sim.schedule_at(
            event.time_s,
            lambda e=event: service.request_by_home(e.home_uid, e.title_id, e.client_id),
            name=f"request:{event.client_id}",
        )
    steps = 0
    assert check_invariants(service) == []
    while sim.peek() is not None and sim.peek() <= until_s:
        event = sim.step()
        steps += 1
        problems = check_invariants(service)
        assert problems == [], f"after event {steps} ({event.name} at {sim.now}): {problems}"
    return steps


def test_invariants_hold_on_a_grnet_dma_run():
    nodes = build_grnet_topology().node_uids()
    scenario = regional_scenario(
        nodes, requests_per_node=12, catalog=catalog(12), horizon_s=HORIZON_S, seed=11
    )
    service = build_service(
        ServiceExperiment(
            name="invariants-dma",
            scenario=scenario,
            config=ServiceConfig(
                cluster_mb=50.0, disk_count=2, disk_capacity_mb=800.0, max_streams=4
            ),
        )
    )
    Table2Replayer(service.sim, service.topology).start()
    service.start()
    steps = stepped(service, HORIZON_S + 3600.0, scenario.events)
    assert steps > 500
    assert any(record.completed for record in service.sessions)
    assert any(len(record.servers_used) > 1 for record in service.sessions)


def test_invariants_hold_under_a_storm_with_every_layer_on():
    topology = build_grnet_topology()
    nodes = topology.node_uids()
    config = ServiceConfig(
        cluster_mb=25.0,
        disk_count=3,
        disk_capacity_mb=500.0,
        max_streams=6,
        retry_attempts=3,
        session_failover=True,
        max_stats_age_s=150.0,
        snmp_period_s=60.0,
        admission_queue_capacity=2,
        admission_rate_per_s=0.004,
        admission_tick_s=300.0,
        placement=PlacementConfig(kind="partial", partial_floor=0.2),
    )
    scenario = regional_scenario(
        nodes, requests_per_node=12, catalog=catalog(10), horizon_s=HORIZON_S, seed=5
    )
    schedule = FaultSchedule.seeded(
        seed=5,
        duration_s=HORIZON_S,
        link_names=[link.name for link in topology.links()],
        server_uids=nodes,
        link_flap_rate_per_h=6.0,
        link_degrade_rate_per_h=6.0,
        server_crash_rate_per_h=3.0,
        disk_failure_rate_per_h=3.0,
        snmp_blackout_rate_per_h=2.0,
        mean_fault_duration_s=300.0,
        disks_per_server=config.disk_count,
    )
    service = build_service(
        ServiceExperiment(name="invariants-storm", scenario=scenario, config=config)
    )
    injector = FaultInjector(service, schedule)
    service.start()
    injector.start()
    stepped(service, HORIZON_S + 2 * 3600.0, scenario.events)
    supervisor = service.supervisor
    assert supervisor.preemption_count > 0 and supervisor.failover_count > 0
    # Stalls parked and woke, and each decide after a failure had a wake-up.
    assert 0 < supervisor.stall_decides <= supervisor.wakeups
    assert service.staleness_guard.transition_count > 0
    assert service.admission_queue.stats.delayed > 0 and service.admission_queue.stats.shed > 0
    assert sum(injector.injected_by_kind.values()) > 10
