"""Unit tests for per-session switching-wrapper wiring in the service."""

import pytest

from repro.baselines.switching import NeverSwitch, PeriodicRecompute
from repro.core.service import ServiceConfig, VoDService
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.placement import PlacementConfig
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def make_service(**config):
    sim = Simulator(start_time=8 * 3600.0)
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    return VoDService(
        sim,
        topology,
        ServiceConfig(cluster_mb=100.0, use_reported_stats=False, **config),
    )


def movie():
    return VideoTitle("m", size_mb=400.0, duration_s=3600.0)


class TestDecideWrapperWiring:
    def test_never_switch_freezes_per_session_not_globally(self):
        # Each session must get its own frozen decision: a later session
        # starting after conditions changed should still decide fresh.
        service = make_service()
        service.decide_wrapper = NeverSwitch
        service.seed_title("U4", movie())
        _, first, _ = service.request_by_home("U2", "m")
        service.sim.run(until=service.sim.now + 3600.0)
        assert first.record.completed
        assert first.record.servers_used == ["U4"]

        # A fresh title (so the DMA cache at U2 cannot shortcut it) with
        # replicas at U4 and U1, requested after the U3 route congested:
        # the new session's own frozen decision must reflect the new state.
        title2 = VideoTitle("m2", size_mb=400.0, duration_s=3600.0)
        service.seed_title("U4", title2)
        service.seed_title("U1", title2)
        service.topology.link_named("Patra-Ioannina").set_background_mbps(1.95)
        _, second, _ = service.request_by_home("U2", "m2")
        service.sim.run(until=service.sim.now + 3600.0)
        assert second.record.completed
        # Frozen within the session, but the session-start decision is new.
        assert second.record.servers_used == ["U1"]
        assert second.record.switch_count == 0

    @pytest.mark.parametrize("wrapper", [NeverSwitch, lambda decide: PeriodicRecompute(decide, 2)])
    def test_a_held_decision_is_a_whole_title_one(self, wrapper):
        # U2 holds the first of four clusters; a decision held over
        # several clusters must come from a server holding all of them.
        service = make_service(placement=PlacementConfig(kind="prefix", prefix_minutes=15.0))
        service.seed_title("U4", movie())
        for _ in range(2):  # the second pass makes the title hot at U2
            service.servers["U2"].on_download_begins(movie())
        assert service.decide("U2", "m", 0).served_locally
        service.decide_wrapper = wrapper
        _, session, _ = service.request_by_home("U2", "m")
        service.sim.run(until=service.sim.now + 3 * 3600.0)
        assert session.record.completed
        assert session.record.servers_used == ["U4"]

    def test_periodic_wrapper_counts_underlying_calls(self):
        service = make_service()
        wrappers = []

        def factory(decide):
            wrapper = PeriodicRecompute(decide, 2)
            wrappers.append(wrapper)
            return wrapper

        service.decide_wrapper = factory
        service.seed_title("U4", movie())
        _, session, _ = service.request_by_home("U2", "m")
        service.sim.run(until=service.sim.now + 3600.0)
        assert session.record.completed
        assert len(wrappers) == 1
        clusters = len(session.record.clusters)
        assert wrappers[0].underlying_calls == -(-clusters // 2)

    def test_default_service_has_no_wrapper(self):
        service = make_service()
        assert service.decide_wrapper is None
