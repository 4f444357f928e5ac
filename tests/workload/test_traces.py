"""Unit tests for background-traffic shapers."""


import pytest

from repro.errors import WorkloadError
from repro.network.grnet import build_grnet_topology, traffic_at
from repro.sim.engine import Simulator
from repro.workload.traces import DiurnalTrafficShaper, Table2Replayer


class TestTable2Replayer:
    def test_start_applies_current_instant(self):
        sim = Simulator(start_time=8 * 3600.0)
        topology = build_grnet_topology()
        Table2Replayer(sim, topology).start()
        assert topology.link_named("Patra-Athens").background_mbps == pytest.approx(0.2)

    def test_traffic_morphs_over_time(self):
        sim = Simulator(start_time=8 * 3600.0)
        topology = build_grnet_topology()
        Table2Replayer(sim, topology, update_period_s=60.0).start()
        sim.run(until=10 * 3600.0)
        assert topology.link_named("Patra-Athens").background_mbps == pytest.approx(
            traffic_at("10am")["Patra-Athens"], abs=0.05
        )


class TestDiurnalTrafficShaper:
    def test_utilization_bounds(self, triangle):
        sim = Simulator()
        shaper = DiurnalTrafficShaper(
            sim, triangle, base_fraction=0.1, peak_fraction=0.8
        )
        for hour in range(0, 25, 3):
            u = shaper.utilization_at(hour * 3600.0)
            assert 0.1 - 1e-9 <= u <= 0.8 + 1e-9

    def test_minimum_at_phase(self, triangle):
        sim = Simulator()
        shaper = DiurnalTrafficShaper(
            sim, triangle, base_fraction=0.1, peak_fraction=0.8, phase_s=4 * 3600.0
        )
        assert shaper.utilization_at(4 * 3600.0) == pytest.approx(0.1)
        assert shaper.utilization_at(16 * 3600.0) == pytest.approx(0.8)

    def test_start_scales_links_by_capacity(self, triangle):
        sim = Simulator(start_time=16 * 3600.0)
        shaper = DiurnalTrafficShaper(
            sim, triangle, base_fraction=0.0, peak_fraction=0.5, phase_s=4 * 3600.0
        )
        shaper.start()
        big = triangle.link_between("A", "B")  # 10 Mb
        small = triangle.link_between("A", "C")  # 2 Mb
        assert big.background_mbps == pytest.approx(5.0)
        assert small.background_mbps == pytest.approx(1.0)

    def test_invalid_fractions_rejected(self, triangle):
        sim = Simulator()
        with pytest.raises(WorkloadError):
            DiurnalTrafficShaper(sim, triangle, base_fraction=0.9, peak_fraction=0.5)
        with pytest.raises(WorkloadError):
            DiurnalTrafficShaper(sim, triangle, base_fraction=-0.1)
        with pytest.raises(WorkloadError):
            DiurnalTrafficShaper(sim, triangle, day_s=0.0)
