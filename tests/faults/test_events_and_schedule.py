"""Fault events and schedules: typing, validation, seeded determinism."""

import pytest

from repro.errors import FaultInjectionError
from repro.faults import (
    FAULT_KINDS,
    DiskFailure,
    FaultSchedule,
    LinkDegrade,
    LinkFlap,
    ServerCrash,
    SnmpBlackout,
    MIN_FAULT_DURATION_S,
)


class TestEvents:
    def test_kinds_and_targets(self):
        assert LinkFlap(0.0, 10.0, link_name="a-b").target == "a-b"
        assert LinkDegrade(0.0, 10.0, link_name="a-b").target == "a-b"
        assert ServerCrash(0.0, 10.0, server_uid="U4").target == "U4"
        assert DiskFailure(0.0, 10.0, server_uid="U4", disk_index=2).target == "U4:disk2"
        assert SnmpBlackout(0.0, 10.0).target == "collector"
        kinds = {
            type(e).kind
            for e in (
                LinkFlap(0.0, 1.0, link_name="l"),
                LinkDegrade(0.0, 1.0, link_name="l"),
                ServerCrash(0.0, 1.0, server_uid="s"),
                DiskFailure(0.0, 1.0, server_uid="s"),
                SnmpBlackout(0.0, 1.0),
            )
        }
        assert kinds == set(FAULT_KINDS)

    def test_recovery_time(self):
        event = LinkFlap(100.0, 25.0, link_name="a-b")
        assert event.recovery_time_s == 125.0

    def test_as_dict_roundtrips_extras(self):
        degrade = LinkDegrade(5.0, 10.0, link_name="a-b", fraction=0.25)
        assert degrade.as_dict() == {
            "kind": "link-degrade",
            "target": "a-b",
            "time_s": 5.0,
            "duration_s": 10.0,
            "fraction": 0.25,
        }
        disk = DiskFailure(5.0, 10.0, server_uid="U4", disk_index=1)
        assert disk.as_dict()["disk_index"] == 1

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: LinkFlap(-1.0, 10.0, link_name="a-b"),
            lambda: LinkFlap(0.0, 0.0, link_name="a-b"),
            lambda: LinkFlap(0.0, 10.0),
            lambda: LinkDegrade(0.0, 10.0, link_name="a-b", fraction=0.0),
            lambda: LinkDegrade(0.0, 10.0, link_name="a-b", fraction=1.5),
            lambda: ServerCrash(0.0, 10.0),
            lambda: DiskFailure(0.0, 10.0, server_uid="U4", disk_index=-1),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(FaultInjectionError):
            bad()


class TestScriptedSchedule:
    def test_sorted_by_time(self):
        late = ServerCrash(500.0, 10.0, server_uid="U4")
        early = LinkFlap(100.0, 10.0, link_name="a-b")
        schedule = FaultSchedule([late, early])
        assert [e.time_s for e in schedule] == [100.0, 500.0]

    def test_counts_and_horizon(self):
        schedule = FaultSchedule([
            LinkFlap(0.0, 50.0, link_name="a-b"),
            LinkFlap(10.0, 5.0, link_name="a-b"),
            SnmpBlackout(40.0, 100.0),
        ])
        assert len(schedule) == 3
        assert schedule.horizon_s == 140.0
        kinds = [event.kind for event in schedule]
        assert kinds.count("link-flap") == 2
        assert kinds.count("snmp-blackout") == 1
        assert kinds.count("server-crash") == 0

    def test_empty_schedule(self):
        schedule = FaultSchedule()
        assert len(schedule) == 0
        assert schedule.horizon_s == 0.0

    def test_rejects_non_events(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule(["not-an-event"])


class TestSeededSchedule:
    KW = dict(
        link_names=["a-b", "b-c"],
        server_uids=["U1", "U2"],
        link_flap_rate_per_h=6.0,
        link_degrade_rate_per_h=6.0,
        server_crash_rate_per_h=6.0,
        disk_failure_rate_per_h=6.0,
        snmp_blackout_rate_per_h=2.0,
        disks_per_server=3,
    )

    def test_same_seed_same_schedule(self):
        a = FaultSchedule.seeded(11, 4 * 3600.0, **self.KW)
        b = FaultSchedule.seeded(11, 4 * 3600.0, **self.KW)
        assert list(a) == list(b)

    def test_different_seed_different_schedule(self):
        a = FaultSchedule.seeded(11, 4 * 3600.0, **self.KW)
        b = FaultSchedule.seeded(12, 4 * 3600.0, **self.KW)
        assert list(a) != list(b)

    def test_kind_streams_independent(self):
        """Zeroing one kind's rate must not move another kind's events."""
        full = FaultSchedule.seeded(11, 4 * 3600.0, **self.KW)
        kw = dict(self.KW, server_crash_rate_per_h=0.0)
        reduced = FaultSchedule.seeded(11, 4 * 3600.0, **kw)
        flaps = lambda s: [e for e in s if e.kind == "link-flap"]  # noqa: E731
        assert flaps(full) == flaps(reduced)
        assert not [e for e in reduced if e.kind == "server-crash"]

    def test_events_inside_horizon_with_min_duration(self):
        schedule = FaultSchedule.seeded(3, 1800.0, **self.KW)
        assert len(schedule) > 0
        for event in schedule:
            assert 0.0 <= event.time_s <= 1800.0
            assert event.duration_s >= MIN_FAULT_DURATION_S

    def test_targets_drawn_from_given_lists(self):
        schedule = FaultSchedule.seeded(5, 8 * 3600.0, **self.KW)
        for event in schedule:
            if event.kind in ("link-flap", "link-degrade"):
                assert event.link_name in self.KW["link_names"]
            elif event.kind in ("server-crash", "disk-failure"):
                assert event.server_uid in self.KW["server_uids"]
            if event.kind == "disk-failure":
                assert 0 <= event.disk_index < self.KW["disks_per_server"]

    def test_rate_without_targets_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule.seeded(1, 3600.0, link_flap_rate_per_h=1.0)
        with pytest.raises(FaultInjectionError):
            FaultSchedule.seeded(1, 3600.0, server_crash_rate_per_h=1.0)

    def test_parameter_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule.seeded(1, 0.0)
        with pytest.raises(FaultInjectionError):
            FaultSchedule.seeded(1, 100.0, link_names=["l"], link_flap_rate_per_h=-1.0)
        with pytest.raises(FaultInjectionError):
            FaultSchedule.seeded(1, 100.0, mean_fault_duration_s=0.0)
        with pytest.raises(FaultInjectionError):
            FaultSchedule.seeded(1, 100.0, disks_per_server=0)
