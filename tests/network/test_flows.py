"""Unit tests for flow reservation accounting."""

import pytest

from repro.errors import FlowError, LinkCapacityError
from repro.network.flows import FlowManager


class TestReservation:
    def test_reserve_holds_bandwidth_on_every_hop(self, line):
        flows = FlowManager(line)
        flow = flows.reserve(["A", "B", "C"], 4.0)
        assert line.link_between("A", "B").reserved_mbps == 4.0
        assert line.link_between("B", "C").reserved_mbps == 4.0
        assert line.link_between("C", "D").reserved_mbps == 0.0
        assert flow.node_path == ("A", "B", "C")

    def test_release_returns_bandwidth(self, line):
        flows = FlowManager(line)
        flow = flows.reserve(["A", "B", "C"], 4.0)
        flows.release(flow)
        assert line.link_between("A", "B").reserved_mbps == 0.0
        assert flows.active_count == 0

    def test_single_node_path_reserves_nothing(self, line):
        flows = FlowManager(line)
        flow = flows.reserve(["A"], 1.0)
        assert all(link.reserved_mbps == 0.0 for link in line.links())
        flows.release(flow)

    def test_atomic_failure_leaves_no_partial_reservation(self, line):
        line.link_between("B", "C").set_background_mbps(9.0)
        flows = FlowManager(line)
        with pytest.raises(LinkCapacityError):
            flows.reserve(["A", "B", "C", "D"], 2.0)
        assert line.link_between("A", "B").reserved_mbps == 0.0
        assert line.link_between("C", "D").reserved_mbps == 0.0
        assert flows.active_count == 0

    def test_a_path_that_repeats_a_link_is_rejected_untouched(self, grnet):
        flows = FlowManager(grnet)
        published = grnet.traffic_version
        with pytest.raises(FlowError, match="crosses a link twice"):
            flows.reserve(["U1", "U2", "U1"], 1.0)
        assert all(link.reserved_mbps == 0.0 for link in grnet.links())
        assert grnet.traffic_version == published
        assert flows.active_count == 0

    def test_empty_path_rejected(self, line):
        with pytest.raises(FlowError):
            FlowManager(line).reserve([], 1.0)

    def test_non_positive_rate_rejected(self, line):
        flows = FlowManager(line)
        with pytest.raises(FlowError):
            flows.reserve(["A", "B"], 0.0)
        with pytest.raises(FlowError):
            flows.reserve(["A", "B"], -2.0)

    def test_double_release_rejected(self, line):
        flows = FlowManager(line)
        flow = flows.reserve(["A", "B"], 1.0)
        flows.release(flow)
        with pytest.raises(FlowError):
            flows.release(flow)

    def test_flow_ids_are_unique(self, line):
        flows = FlowManager(line)
        a = flows.reserve(["A", "B"], 1.0)
        b = flows.reserve(["B", "C"], 1.0)
        assert a.flow_id != b.flow_id

    def test_active_flows_snapshot(self, line):
        flows = FlowManager(line)
        a = flows.reserve(["A", "B"], 1.0)
        flows.reserve(["B", "C"], 1.0)
        assert flows.active_count == 2
        flows.release(a)
        assert flows.active_count == 1


    def test_path_memo_starts_over_at_capacity(self, line, monkeypatch):
        from repro.network import flows as flows_module

        monkeypatch.setattr(flows_module, "PATH_MEMO_CAPACITY", 2)
        flows = FlowManager(line)
        flows.links_of(["A", "B"])
        flows.links_of(["B", "C"])
        assert flows.links_of(["C", "D"]) == (line.link_between("C", "D"),)
        assert list(flows._path_links) == [("C", "D")]


class TestCapacityQueries:
    def test_path_fits(self, line):
        flows = FlowManager(line)
        assert flows.path_fits(["A", "B", "C"], 10.0)
        line.link_between("B", "C").set_background_mbps(5.0)
        assert not flows.path_fits(["A", "B", "C"], 6.0)
        assert flows.path_fits(["A", "B", "C"], 5.0)

    def test_bottleneck(self, line):
        flows = FlowManager(line)
        line.link_between("B", "C").set_background_mbps(7.0)
        assert flows.bottleneck_mbps(["A", "B", "C", "D"]) == pytest.approx(3.0)

    def test_bottleneck_single_node_is_infinite(self, line):
        assert FlowManager(line).bottleneck_mbps(["A"]) == float("inf")

    def test_concurrent_flows_share_capacity(self, line):
        flows = FlowManager(line)
        flows.reserve(["A", "B"], 6.0)
        flows.reserve(["A", "B"], 4.0)
        with pytest.raises(LinkCapacityError):
            flows.reserve(["A", "B"], 0.5)
