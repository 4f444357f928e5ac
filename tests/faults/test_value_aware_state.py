"""Value-aware online setters: same-value writes must be free.

Fault storms re-assert state constantly (overlapping windows, idempotent
recovery).  If a same-value ``online = x`` published on the change feed,
every redundant write would move the routing epoch and cost a
weight-table rebuild — so both setters must notice no-op assignments.
"""

from repro.core.service import ServiceConfig, VoDService
from repro.network.feed import AVAILABILITY, SERVER, STATE
from repro.network.grnet import build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def publishes(feed, kind, key):
    """A list that grows by one for each later publish of ``kind`` about
    ``key`` on ``feed``."""
    seen = []
    feed.subscribe(kind, lambda changed: changed is key and seen.append(1))
    return seen


class TestLinkOnlineValueAware:
    def test_same_value_assign_bumps_nothing(self):
        topology = build_grnet_topology()
        link = topology.link_named("Patra-Athens")
        seen = publishes(topology.feed, STATE, link)
        counts = list(topology.feed.counts)
        link.online = True  # already online
        assert seen == [] and topology.feed.counts == counts

    def test_transition_bumps_once_each_way(self):
        topology = build_grnet_topology()
        link = topology.link_named("Patra-Athens")
        seen = publishes(topology.feed, STATE, link)
        link.online = False
        link.online = False  # redundant re-assert
        assert len(seen) == 1
        link.online = True
        assert len(seen) == 2


class TestServerOnlineValueAware:
    def make_server(self):
        service = VoDService(
            Simulator(),
            build_grnet_topology(),
            ServiceConfig(disk_count=2, disk_capacity_mb=500.0),
        )
        self.feed = service.topology.feed  # shared with every server
        return service.servers["U4"]

    def test_same_value_assign_bumps_nothing(self):
        server = self.make_server()
        feed = self.feed
        counts = list(feed.counts)
        server.online = True  # already online
        assert feed.counts == counts

    def test_transition_bumps_once_each_way(self):
        server = self.make_server()
        feed = self.feed
        flips = publishes(feed, SERVER, server)
        availability = publishes(feed, AVAILABILITY, server)
        server.online = False
        server.online = False  # redundant re-assert
        assert len(flips) == len(availability) == 1
        server.online = True
        server.online = 1  # truthy re-assert, still no transition
        assert len(flips) == len(availability) == 2

    def test_state_change_callback_fires_on_transitions_only(self):
        server = self.make_server()
        seen = []
        self.feed.subscribe(SERVER, lambda changed: seen.append(changed.online))
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
