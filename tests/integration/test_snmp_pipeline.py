"""Integration tests: counters -> agent -> collector -> database -> VRA."""

import pytest

from repro.core.service import ServiceConfig, VoDService
from repro.network.grnet import build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle
from repro.workload.traces import Table2Replayer


class TestSnmpToVraPipeline:
    def test_reported_weights_track_replayed_day(self):
        sim = Simulator(start_time=8 * 3600.0)
        topology = build_grnet_topology()
        service = VoDService(
            sim,
            topology,
            ServiceConfig(snmp_period_s=120.0, use_reported_stats=True),
        )
        Table2Replayer(sim, topology, update_period_s=60.0).start()
        service.start()

        sim.run(until=8 * 3600.0 + 400.0)
        morning = service.vra.weights()["Patra-Athens"]
        sim.run(until=10 * 3600.0 + 400.0)
        midmorning = service.vra.weights()["Patra-Athens"]
        # Table 2: Patra-Athens jumps from 10% to 91% between 8am and 10am.
        assert morning < midmorning
        assert midmorning > 0.4

    def test_reported_and_ground_truth_converge_on_static_network(self):
        sim = Simulator(start_time=8 * 3600.0)
        topology = build_grnet_topology()
        from repro.network.grnet import apply_traffic_sample

        apply_traffic_sample(topology, "8am")
        service = VoDService(
            sim,
            topology,
            ServiceConfig(snmp_period_s=60.0, use_reported_stats=True),
        )
        service.start()
        sim.run(until=8 * 3600.0 + 150.0)
        from tests.reference.lvn import weight_table

        reported = service.vra.weights()
        truth = weight_table(topology)
        for name, value in truth.items():
            assert reported[name] == pytest.approx(value, rel=1e-2, abs=1e-4), name

    def test_vod_streams_show_up_in_reported_stats(self):
        sim = Simulator(start_time=8 * 3600.0)
        topology = build_grnet_topology()  # idle background
        service = VoDService(
            sim,
            topology,
            ServiceConfig(
                cluster_mb=400.0,
                snmp_period_s=60.0,
                use_reported_stats=True,
            ),
        )
        # 2 Mbps stream U4 -> U2 pins the whole Patra-Ioannina link.
        service.seed_title("U4", VideoTitle("m", size_mb=900.0, duration_s=3600.0))
        service.start()
        service.request_by_home("U2", "m")
        sim.run(until=8 * 3600.0 + 300.0)
        # The stream's own reservation is visible through SNMP: its route
        # links report non-trivial utilisation in the database.
        entries = {
            e.link_name: e.utilization for e in service.database.link_entries()
        }
        assert max(entries.values()) > 0.3
