"""Value-aware online setters: same-value writes must be free.

Fault storms re-assert state constantly (overlapping windows, idempotent
recovery).  If a same-value ``online = x`` bumped versions, every
redundant write would move the routing epoch and cost a weight-table
rebuild — so both setters must notice no-op assignments.
"""

from repro.core.service import ServiceConfig, VoDService
from repro.network.grnet import build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


class TestLinkOnlineValueAware:
    def test_same_value_assign_bumps_nothing(self):
        topology = build_grnet_topology()
        link = topology.link_named("Patra-Athens")
        version = link.state_version
        link.online = True  # already online
        assert link.state_version == version

    def test_transition_bumps_once_each_way(self):
        topology = build_grnet_topology()
        link = topology.link_named("Patra-Athens")
        version = link.state_version
        link.online = False
        link.online = False  # redundant re-assert
        assert link.state_version == version + 1
        link.online = True
        assert link.state_version == version + 2


class TestServerOnlineValueAware:
    def make_server(self):
        service = VoDService(
            Simulator(),
            build_grnet_topology(),
            ServiceConfig(disk_count=2, disk_capacity_mb=500.0),
        )
        return service.servers["U4"]

    def test_same_value_assign_bumps_nothing(self):
        server = self.make_server()
        version = server.state_version
        server.online = True  # already online
        assert server.state_version == version

    def test_transition_bumps_once_each_way(self):
        server = self.make_server()
        version = server.state_version
        server.online = False
        server.online = False  # redundant re-assert
        assert server.state_version == version + 1
        server.online = True
        server.online = 1  # truthy re-assert, still no transition
        assert server.state_version == version + 2

    def test_state_change_callback_fires_on_transitions_only(self):
        server = self.make_server()
        seen = []
        server.on_state_change = lambda s: seen.append(s.online)
        server.online = True  # no-op
        server.online = False
        server.online = False  # no-op
        server.online = True
        assert seen == [False, True]

    def test_offline_server_fails_availability_poll(self):
        server = self.make_server()
        server.seed_title(VideoTitle("m1", size_mb=100.0, duration_s=600.0))
        assert server.can_provide("m1")
        server.online = False
        assert not server.can_provide("m1")
        server.online = True
        assert server.can_provide("m1")
