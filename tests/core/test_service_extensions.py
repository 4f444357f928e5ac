"""Unit tests for the service-level future-work extensions:
server-load-aware validation and strict QoS admission."""

import pytest

from repro.client.requests import RequestStatus
from repro.core.lvn import node_validation
from repro.core.service import ServiceConfig, VoDService
from repro.core.vra import VirtualRoutingAlgorithm
from repro.database.records import LinkStats
from repro.errors import ReproError
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


def make_service(**overrides):
    defaults = dict(
        cluster_mb=50.0,
        disk_count=2,
        disk_capacity_mb=2_000.0,
        snmp_period_s=60.0,
        use_reported_stats=False,
    )
    defaults.update(overrides)
    sim = Simulator(start_time=8 * 3600.0)
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    return VoDService(sim, topology, ServiceConfig(**defaults))


def movie(title_id="m1", size_mb=400.0, duration_s=3600.0):
    return VideoTitle(title_id, size_mb=size_mb, duration_s=duration_s)


class TestNodeLoadTerm:
    def test_default_is_paper_equation(self, grnet_8am):
        plain = node_validation(grnet_8am, "U2")
        with_zero_load = node_validation(grnet_8am, "U2", node_load=lambda _uid: 0.0)
        assert plain == with_zero_load

    def test_load_adds_to_validation(self, grnet_8am):
        loaded = node_validation(grnet_8am, "U2", node_load=lambda _uid: 0.4)
        assert loaded == pytest.approx(node_validation(grnet_8am, "U2") + 0.4)

    def test_negative_load_rejected(self, grnet_8am):
        with pytest.raises(ReproError):
            node_validation(grnet_8am, "U2", node_load=lambda _uid: -0.1)

    def test_vra_avoids_loaded_servers(self, grnet):
        # Idle network: every path costs 0, so the unloaded tie from U5
        # breaks lexicographically to U1.  Loading U1 makes its adjacent
        # links expensive and flips the decision to U4.
        unloaded = VirtualRoutingAlgorithm(grnet)
        assert unloaded.decide("U5", "m", holders=["U1", "U4"]).chosen_uid == "U1"
        loads = {"U1": 0.9}
        vra = VirtualRoutingAlgorithm(
            grnet, node_load=lambda uid: loads.get(uid, 0.0)
        )
        decision = vra.decide("U5", "m", holders=["U1", "U4"])
        assert decision.chosen_uid == "U4"
        assert decision.candidate_paths["U1"].cost >= 0.9

    def test_service_wires_stream_occupancy(self):
        service = make_service(use_server_load_in_vra=True, max_streams=4)
        service.seed_title("U4", movie())
        service.seed_title("U1", movie())
        # Occupy 3 of U4's 4 slots: its node validation rises by 0.75.
        leases = [service.servers["U4"].begin_serving("m1") for _ in range(3)]
        decision = service.decide("U5", "m1")
        assert decision.chosen_uid == "U1"
        for lease in leases:
            service.servers["U4"].end_serving(lease)
        assert service.decide("U5", "m1").chosen_uid == "U4"

    def test_service_default_ignores_load(self):
        service = make_service(max_streams=4)
        service.seed_title("U4", movie())
        service.seed_title("U1", movie())
        leases = [service.servers["U4"].begin_serving("m1") for _ in range(3)]
        # Paper behaviour: stream occupancy is invisible to the weights
        # (the admission *poll* still works, but U4 has a slot free).
        assert service.decide("U5", "m1").chosen_uid == "U4"
        for lease in leases:
            service.servers["U4"].end_serving(lease)


class TestServerOverrides:
    def test_overridden_node_gets_different_hardware(self):
        service = make_service(
            disk_count=2,
            disk_capacity_mb=1_000.0,
            max_streams=16,
            server_overrides={
                "U1": {"disk_count": 8, "disk_capacity_mb": 4_000.0, "max_streams": 64}
            },
        )
        assert service.servers["U1"].array.disk_count == 8
        assert service.servers["U1"].array.total_capacity_mb == 32_000.0
        assert service.servers["U1"].admission.max_streams == 64
        assert service.servers["U2"].array.disk_count == 2
        assert service.servers["U2"].admission.max_streams == 16

    def test_database_entry_reflects_overrides(self):
        service = make_service(
            server_overrides={"U4": {"disk_capacity_mb": 9_000.0}}
        )
        entry = service.database.server_entry("U4")
        assert entry.disk_capacity_mb == 9_000.0
        assert service.database.server_entry("U2").disk_capacity_mb == 2_000.0

    def test_override_for_absent_node_waits_for_expansion(self):
        # Overrides may pre-declare hardware for nodes that join later.
        service = make_service(server_overrides={"U9": {"disk_count": 4}})
        assert "U9" not in service.servers

    def test_unknown_knob_rejected(self):
        with pytest.raises(Exception) as excinfo:
            make_service(server_overrides={"U1": {"cpu_ghz": 3.0}})
        assert "cpu_ghz" in str(excinfo.value)

    def test_runtime_expansion_honours_overrides(self):
        from repro.network.link import Link
        from repro.network.node import Node

        service = make_service(
            server_overrides={"U7": {"disk_count": 6, "max_streams": 4}}
        )
        service.add_server(
            Node("U7"), [Link("U7", "U2", capacity_mbps=2.0, name="new")]
        )
        assert service.servers["U7"].array.disk_count == 6
        assert service.servers["U7"].admission.max_streams == 4


class TestStrictQosAdmission:
    def test_admits_when_path_sustains_bitrate(self):
        service = make_service(strict_qos_admission=True)
        service.seed_title("U4", movie())  # 0.89 Mbps playback
        request, _, _ = service.request_by_home("U2", "m1")
        service.sim.run(until=service.sim.now + 2 * 3600.0)
        assert request.status is RequestStatus.COMPLETED

    def test_blocks_when_no_path_sustains_bitrate(self):
        service = make_service(strict_qos_admission=True)
        service.seed_title("U4", movie())
        for link in service.topology.links():
            link.set_background_mbps(link.capacity_mbps)
        request, session, process = service.request_by_home("U2", "m1")
        assert request.status is RequestStatus.FAILED
        assert request.failure_reason.startswith("qos-blocked")
        assert session.record.clusters == []
        service.sim.run(until=service.sim.now + 10.0)
        assert process.finished

    def test_local_serve_always_admitted(self):
        service = make_service(strict_qos_admission=True)
        service.seed_title("U2", movie())
        for link in service.topology.links():
            link.set_background_mbps(link.capacity_mbps)
        request, _, _ = service.request_by_home("U2", "m1")
        service.sim.run(until=service.sim.now + 3600.0)
        assert request.status is RequestStatus.COMPLETED

    def test_any_sustaining_candidate_admits(self):
        service = make_service(strict_qos_admission=True)
        service.seed_title("U4", movie())
        service.seed_title("U6", movie())
        # Starve every route to U4 but leave Athens-Heraklio able to carry
        # the stream toward U2 via U1.
        for name in ("Patra-Ioannina", "Thessaloniki-Ioannina", "Thessaloniki-Athens", "Thessaloniki-Xanthi", "Xanthi-Heraklio"):
            link = service.topology.link_named(name)
            link.set_background_mbps(link.capacity_mbps)
        request, session, _ = service.request_by_home("U2", "m1")
        assert request.status is not RequestStatus.FAILED
        service.sim.run(until=service.sim.now + 3 * 3600.0)
        assert request.status is RequestStatus.COMPLETED
        assert session.record.servers_used == ["U6"]

    def test_blocked_request_rolls_back_dma_store(self):
        service = make_service(strict_qos_admission=True)
        service.seed_title("U4", movie())
        for link in service.topology.links():
            link.set_background_mbps(link.capacity_mbps)
        service.request_by_home("U2", "m1")
        assert not service.servers["U2"].array.has_video("m1")
        assert service.servers["U2"].pending_title_ids() == []

    def test_default_degrades_instead_of_blocking(self):
        service = make_service()  # strict admission off
        service.seed_title("U4", movie("m1", size_mb=50.0, duration_s=600.0))
        for link in service.topology.links():
            link.set_background_mbps(link.capacity_mbps)
        request, session, _ = service.request_by_home("U2", "m1")
        service.sim.run(until=service.sim.now + 5 * 24 * 3600.0)
        assert request.status is RequestStatus.COMPLETED
        assert session.record.qos_violation_count > 0

    def test_admission_consults_every_candidate_not_just_the_search_prefix(self):
        """The compiled search stops at the nearest holder; admission must
        still see the farther candidates' paths (the lazily completed
        audit trail), or a saturated winner would block a servable title."""
        service = make_service(strict_qos_admission=True, use_reported_stats=True)
        service.seed_title("U4", movie())
        service.seed_title("U5", movie())
        service.start()
        admin = service.database.limited_access()
        for link in service.topology.links():  # the 8am sample, as SNMP saw it
            admin.update_link_stats(
                link.name,
                LinkStats(link.used_mbps, link.utilization, service.sim.now),
            )
        # Since that sample, the winner's first hop filled up (not yet polled).
        choked = service.topology.link_named("Patra-Ioannina")
        choked.set_background_mbps(choked.capacity_mbps)

        decision = service.decide("U2", "m1")
        assert decision.chosen_uid == "U4" and decision.path.nodes == ("U2", "U3", "U4")
        assert not service.flows.path_fits(decision.path.nodes, movie().bitrate_mbps)
        assert set(decision.candidate_paths) == {"U4", "U5"}
        assert decision.dijkstra_result.complete
        assert service._qos_refusal("U2", "m1", movie()) is None

    def test_a_request_no_holder_can_source_is_blocked_for_that_reason(self):
        """When the VRA finds no source at all, the block names the holder
        that is polled out, not a rate no path can sustain."""
        service = make_service(strict_qos_admission=True)
        service.seed_title("U5", movie())
        service.servers["U5"].online = False
        request, _, _ = service.request_by_home("U2", "m1")
        assert request.status is RequestStatus.FAILED
        reason = request.failure_reason
        assert reason.startswith("qos-blocked: ")
        assert "U5" in reason and "polled out" in reason
        assert "sustain" not in reason
