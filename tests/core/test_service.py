"""Unit tests for the VoDService facade."""

import pytest

from repro.client.client import Client
from repro.client.requests import RequestStatus
from repro.core.service import ServiceConfig, VoDService
from repro.core.vra import VirtualRoutingAlgorithm
from repro.errors import ServiceError
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def small_config(**overrides) -> ServiceConfig:
    defaults = dict(
        cluster_mb=50.0,
        disk_count=2,
        disk_capacity_mb=500.0,
        snmp_period_s=60.0,
        use_reported_stats=False,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture
def service(grnet_8am):
    sim = Simulator(start_time=8 * 3600.0)
    return VoDService(sim, grnet_8am, small_config())


def movie(title_id="m1", size_mb=400.0, duration_s=3600.0):
    return VideoTitle(title_id, size_mb=size_mb, duration_s=duration_s)


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["admission_queue_capacity", "retry_attempts"])
    def test_negative_count_is_rejected_not_read_as_off(self, name):
        with pytest.raises(ServiceError, match=f"{name} must be >= 0"):
            ServiceConfig(**{name: -1})
        assert getattr(ServiceConfig(**{name: 0}), name) == 0


class TestInitialisation:
    def test_one_server_and_entry_per_node(self, service, grnet_8am):
        assert set(service.servers) == {n.uid for n in grnet_8am.nodes()}
        assert service.database.server_uids() == sorted(service.servers)

    def test_link_entries_registered_with_bandwidth(self, service):
        entry = service.database.link_entry("Thessaloniki-Athens")
        assert entry.total_bandwidth_mbps == 18.0

    def test_seed_title_advertises(self, service):
        service.seed_title("U4", movie())
        assert service.database.servers_with_title("m1") == ["U4"]
        assert service.servers["U4"].has_title("m1")

    def test_seed_on_unknown_server_rejected(self, service):
        with pytest.raises(ServiceError):
            service.seed_title("U9", movie())

    def test_access_network_attachment(self, service):
        service.attach_access_network("10.2.0", "U2")
        client = Client("alice", "10.2.0.7")
        assert service.register_client(client) == "U2"

    def test_conflicting_subnet_rejected(self, service):
        service.attach_access_network("10.2.0", "U2")
        with pytest.raises(ServiceError):
            service.attach_access_network("10.2.0", "U3")

    def test_same_subnet_reattachment_ok(self, service):
        service.attach_access_network("10.2.0", "U2")
        service.attach_access_network("10.2.0", "U2")

    def test_unknown_server_attachment_rejected(self, service):
        with pytest.raises(ServiceError):
            service.attach_access_network("10.0.0", "U9")


class TestRequestPath:
    def test_remote_request_completes(self, service):
        service.seed_title("U4", movie())
        request, session, process = service.request_by_home("U2", "m1")
        service.sim.run(until=service.sim.now + 2 * 3600.0)
        assert request.status is RequestStatus.COMPLETED
        assert session.record.servers_used == ["U4"]
        assert process.finished

    def test_local_request_served_from_home(self, service):
        service.seed_title("U2", movie())
        request, session, _ = service.request_by_home("U2", "m1")
        service.sim.run(until=service.sim.now + 3600.0)
        assert request.status is RequestStatus.COMPLETED
        assert session.record.servers_used == ["U2"]
        assert session.record.clusters[0].path_nodes == ("U2",)

    def test_submit_resolves_home_from_client_address(self, service):
        service.seed_title("U4", movie())
        service.attach_access_network("10.2.0", "U2")
        client = Client("alice", "10.2.0.7")
        service.register_client(client)
        request, _, _ = service.submit(client, "m1")
        assert request.home_uid == "U2"

    def test_submit_by_client_id(self, service):
        service.seed_title("U4", movie())
        service.attach_access_network("10.2.0", "U2")
        service.register_client(Client("alice", "10.2.0.7"))
        request, _, _ = service.submit("alice", "m1")
        assert request.client_id == "alice"

    def test_unregistered_client_rejected(self, service):
        service.seed_title("U4", movie())
        with pytest.raises(ServiceError):
            service.submit("ghost", "m1")
        with pytest.raises(ServiceError):
            service.submit(Client("ghost", "10.2.0.9"), "m1")

    def test_unknown_home_rejected(self, service):
        service.seed_title("U4", movie())
        with pytest.raises(ServiceError):
            service.request_by_home("U9", "m1")

    def test_unknown_title_rejected(self, service):
        with pytest.raises(Exception):
            service.request_by_home("U2", "ghost")


class TestDmaIntegration:
    def test_remote_fetch_caches_at_home_after_completion(self, service):
        service.seed_title("U4", movie())
        service.request_by_home("U2", "m1")
        # While streaming, the copy must not be advertised at U2.
        service.sim.run(until=service.sim.now + 10.0)
        assert service.database.servers_with_title("m1") == ["U4"]
        assert service.servers["U2"].pending_title_ids() == ["m1"]
        service.sim.run(until=service.sim.now + 2 * 3600.0)
        assert service.database.servers_with_title("m1") == ["U2", "U4"]
        assert service.servers["U2"].pending_title_ids() == []

    def test_second_request_served_locally_after_caching(self, service):
        service.seed_title("U4", movie())
        service.request_by_home("U2", "m1")
        service.sim.run(until=service.sim.now + 2 * 3600.0)
        _, session, _ = service.request_by_home("U2", "m1")
        service.sim.run(until=service.sim.now + 3600.0)
        assert session.record.servers_used == ["U2"]

    def test_mid_session_decisions_ignore_pending_copy(self, service):
        service.seed_title("U4", movie())
        _, session, _ = service.request_by_home("U2", "m1")
        service.sim.run(until=service.sim.now + 2 * 3600.0)
        # Every cluster must have come from U4 (the pending local copy
        # never participates in its own download).
        assert session.record.servers_used == ["U4"]


class TestDecide:
    def test_decide_uses_advertisements(self, service):
        service.seed_title("U4", movie())
        service.seed_title("U5", movie())
        decision = service.decide("U2", "m1")
        assert decision.chosen_uid in {"U4", "U5"}

    def test_decide_respects_admission_poll(self, service, grnet_8am):
        config = small_config(max_streams=1)
        sim = Simulator(start_time=8 * 3600.0)
        svc = VoDService(sim, grnet_8am, config)
        svc.seed_title("U4", movie())
        svc.seed_title("U5", movie())
        lease = svc.servers["U4"].begin_serving("m1")
        decision = svc.decide("U2", "m1")
        assert decision.chosen_uid == "U5"
        svc.servers["U4"].end_serving(lease)

    def test_normalization_constant_is_the_k_of_eq4(self, grnet_8am):
        # Equation (4) with K=5 on the 8am traffic, through the service's
        # own (compiled, memoised) VRA.
        svc = VoDService(Simulator(), grnet_8am, small_config(normalization_constant=5.0))
        expected = VirtualRoutingAlgorithm(grnet_8am, normalization_constant=5.0).weights()
        assert svc.vra.weights() == expected
        assert expected != VirtualRoutingAlgorithm(grnet_8am).weights()


class TestStatisticsIntegration:
    def test_reported_stats_feed_vra(self, grnet_8am):
        sim = Simulator(start_time=8 * 3600.0)
        service = VoDService(sim, grnet_8am, small_config(use_reported_stats=True))
        service.start()
        # Before any SNMP window closes, the DB reports idle links.
        weights_before = service.vra.weights()
        assert all(w == 0.0 for w in weights_before.values())
        sim.run(until=sim.now + 130.0)
        weights_after = service.vra.weights()
        # After two polls the Table 2 background shows up in the weights.
        assert weights_after["Patra-Athens"] > 0.0

    def test_start_is_idempotent(self, service):
        service.start()
        service.start()
        service.sim.run(until=service.sim.now + 61.0)


class TestIntrospection:
    def test_sessions_recorded(self, service):
        service.seed_title("U4", movie())
        service.request_by_home("U2", "m1")
        assert len(service.sessions) == 1
        service.sim.run(until=service.sim.now + 2 * 3600.0)
        assert [record.request.finished for record in service.sessions] == [True]

    def test_title_video_roundtrip(self, service):
        original = movie()
        service.seed_title("U4", original)
        rebuilt = service.title_video("m1")
        assert rebuilt.size_mb == original.size_mb
        assert rebuilt.bitrate_mbps == pytest.approx(original.bitrate_mbps)
