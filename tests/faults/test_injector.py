"""FaultInjector: application, recovery, nesting, and bookkeeping."""

import pytest

from repro.core.service import ServiceConfig, VoDService
from repro.errors import FaultInjectionError
from repro.faults import (
    DiskFailure,
    FaultInjector,
    FaultSchedule,
    LinkDegrade,
    LinkFlap,
    ServerCrash,
    SnmpBlackout,
)
from repro.network.feed import STATE
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def make_service(**config_overrides):
    defaults = dict(
        cluster_mb=50.0,
        disk_count=2,
        disk_capacity_mb=1_000.0,
        snmp_period_s=60.0,
        use_reported_stats=False,
    )
    defaults.update(config_overrides)
    sim = Simulator()
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    return VoDService(sim, topology, ServiceConfig(**defaults))


def run_with(service, *events, until=10_000.0):
    injector = FaultInjector(service, FaultSchedule(events))
    injector.start()
    service.sim.run(until=until)
    return injector


class TestLinkFaults:
    def test_flap_applies_and_recovers(self):
        service = make_service()
        link = service.topology.link_named("Patra-Ioannina")
        injector = FaultInjector(
            service, FaultSchedule([LinkFlap(100.0, 50.0, link_name=link.name)])
        )
        injector.start()
        service.sim.run(until=120.0)
        assert link.online is False
        service.sim.run(until=200.0)
        assert link.online is True
        assert injector.injected_by_kind["link-flap"] == 1
        assert injector.recovered_by_kind["link-flap"] == 1

    def test_overlapping_flaps_nest(self):
        service = make_service()
        link = service.topology.link_named("Patra-Ioannina")
        flips = []
        service.topology.feed.subscribe(
            STATE, lambda changed: changed is link and flips.append(link.online)
        )
        run_with(
            service,
            LinkFlap(100.0, 200.0, link_name=link.name),
            LinkFlap(150.0, 300.0, link_name=link.name),
            until=280.0,
        )
        # First window closed at t=300 > 280? No: run to 280; first closes
        # at 300. Link must still be down (both windows open at 280).
        assert link.online is False
        service.sim.run(until=320.0)
        assert link.online is False  # inner window still open until 450
        service.sim.run(until=500.0)
        assert link.online is True
        # Exactly one down + one up transition despite two windows.
        assert flips == [False, True]

    def test_degrade_adds_and_removes_background(self):
        service = make_service()
        link = service.topology.link_named("Patra-Ioannina")
        before = link.background_mbps
        injector = FaultInjector(
            service,
            FaultSchedule([
                LinkDegrade(100.0, 50.0, link_name=link.name, fraction=0.5)
            ]),
        )
        injector.start()
        service.sim.run(until=120.0)
        assert link.background_mbps == pytest.approx(
            min(before + 0.5 * link.capacity_mbps, link.capacity_mbps)
        )
        service.sim.run(until=200.0)
        assert link.background_mbps == pytest.approx(before)

    def test_clamped_degrades_undo_only_what_they_applied(self):
        service = make_service()
        link = service.topology.link_named("Patra-Ioannina")
        base = 0.8 * link.capacity_mbps
        link.set_background_mbps(base)
        run_with(
            service,
            # Together they would exceed capacity; each must undo only its
            # actually applied (clamped) share.
            LinkDegrade(100.0, 300.0, link_name=link.name, fraction=0.5),
            LinkDegrade(120.0, 100.0, link_name=link.name, fraction=0.5),
            until=150.0,
        )
        assert link.background_mbps == pytest.approx(link.capacity_mbps)
        service.sim.run(until=250.0)  # second window closed, first open
        assert link.background_mbps == pytest.approx(link.capacity_mbps)
        service.sim.run(until=500.0)
        assert link.background_mbps == pytest.approx(base)


class TestServerAndDiskFaults:
    def test_crash_excludes_server_then_recovers(self):
        service = make_service()
        service.seed_title("U4", VideoTitle("m1", size_mb=400.0, duration_s=3600.0))
        service.seed_title("U5", VideoTitle("m1", size_mb=400.0, duration_s=3600.0))
        injector = FaultInjector(
            service, FaultSchedule([ServerCrash(100.0, 50.0, server_uid="U4")])
        )
        injector.start()
        service.sim.run(until=120.0)
        assert service.servers["U4"].online is False
        assert service.decide("U2", "m1").chosen_uid == "U5"
        service.sim.run(until=200.0)
        assert service.servers["U4"].online is True

    def test_overlapping_crashes_recover_at_last_window(self):
        service = make_service()
        run_with(
            service,
            ServerCrash(100.0, 100.0, server_uid="U4"),
            ServerCrash(150.0, 200.0, server_uid="U4"),
            until=250.0,
        )
        assert service.servers["U4"].online is False
        service.sim.run(until=400.0)
        assert service.servers["U4"].online is True

    def test_disk_failure_polls_title_out(self):
        service = make_service()
        video = VideoTitle("m1", size_mb=400.0, duration_s=3600.0)
        service.seed_title("U4", video)
        service.seed_title("U5", video)
        # m1 is striped across both disks of U4; disk 0 dying makes it
        # unservable there until the swap.
        injector = FaultInjector(
            service,
            FaultSchedule([
                DiskFailure(100.0, 50.0, server_uid="U4", disk_index=0)
            ]),
        )
        injector.start()
        service.sim.run(until=120.0)
        assert not service.servers["U4"].has_title("m1")
        assert service.decide("U2", "m1").chosen_uid == "U5"
        service.sim.run(until=200.0)
        assert service.servers["U4"].has_title("m1")


class TestSnmpBlackout:
    def test_blackout_skips_rounds_and_stats_go_stale(self):
        service = make_service(use_reported_stats=True)
        service.start()
        service.sim.run(until=130.0)  # baseline + two rounds
        link_name = "Patra-Ioannina"
        stamp_before = service.database.link_entry(link_name).latest_stats.timestamp
        # Offsets are relative to the injector's start (sim is at t=130):
        # dark from t=140 to t=320, covering the rounds at 180/240/300.
        injector = run_with(
            service,
            SnmpBlackout(10.0, 180.0),
            until=400.0,
        )
        assert service.statistics.blackout_skips == 3
        # No stats were written during the dark window...
        service_stamp = service.database.link_entry(link_name).latest_stats.timestamp
        assert service_stamp >= stamp_before
        assert injector.injected_by_kind["snmp-blackout"] == 1
        # ...and collection resumed after it.
        assert not service.statistics.blacked_out

    def test_nested_blackouts(self):
        service = make_service()
        service.start()
        run_with(
            service,
            SnmpBlackout(10.0, 100.0),
            SnmpBlackout(50.0, 200.0),
            until=120.0,
        )
        assert service.statistics.blacked_out
        service.sim.run(until=300.0)
        assert not service.statistics.blacked_out


class TestBookkeeping:
    def test_report_and_log(self):
        service = make_service()
        link = service.topology.link_named("Patra-Athens")
        injector = run_with(
            service,
            LinkFlap(100.0, 50.0, link_name=link.name),
            ServerCrash(200.0, 80.0, server_uid="U5"),
            until=1_000.0,
        )
        assert len(injector.schedule) == 2
        assert injector.injected_by_kind["link-flap"] == 1
        assert injector.recovered_by_kind["server-crash"] == 1
        assert injector.mean_mttr_s == pytest.approx(65.0)
        actions = [(entry["action"], entry["kind"]) for entry in injector.log]
        assert actions == [
            ("inject", "link-flap"),
            ("recover", "link-flap"),
            ("inject", "server-crash"),
            ("recover", "server-crash"),
        ]

    def test_mean_mttr_is_zero_before_any_recovery(self):
        injector = run_with(
            make_service(), LinkFlap(100.0, 5_000.0, link_name="Patra-Athens"), until=1_000.0
        )
        assert injector.injected_by_kind["link-flap"] == 1
        assert injector.mean_mttr_s == 0.0

    def test_start_twice_rejected(self):
        service = make_service()
        injector = FaultInjector(service, FaultSchedule())
        injector.start()
        with pytest.raises(FaultInjectionError):
            injector.start()

    def test_unknown_server_target_raises_at_apply(self):
        service = make_service()
        injector = FaultInjector(
            service, FaultSchedule([ServerCrash(10.0, 5.0, server_uid="nope")])
        )
        injector.start()
        with pytest.raises(FaultInjectionError):
            service.sim.run(until=100.0)
