"""Unit tests for JSON (de)serialisation of topologies."""

import json

import pytest

from repro.io import (
    SerializationError,
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.network.grnet import apply_traffic_sample, build_grnet_topology


class TestTopologyRoundtrip:
    def test_grnet_roundtrips(self):
        original = build_grnet_topology()
        apply_traffic_sample(original, "4pm")
        original.link_named("Patra-Athens").online = False
        restored = topology_from_dict(topology_to_dict(original))
        assert restored.name == original.name
        assert restored.node_uids() == original.node_uids()
        assert restored.link_count == original.link_count
        for link in original.links():
            twin = restored.link_named(link.name)
            assert twin.capacity_mbps == link.capacity_mbps
            assert twin.background_mbps == pytest.approx(link.background_mbps)
            assert twin.online == link.online
        for node in original.nodes():
            assert restored.node(node.uid).name == node.name

    def test_file_roundtrip(self, tmp_path):
        original = build_grnet_topology()
        path = tmp_path / "net.json"
        save_topology(original, path)
        restored = load_topology(path)
        assert restored.node_uids() == original.node_uids()
        # The file is valid, stable JSON.
        document = json.loads(path.read_text())
        assert document["name"] == "GRNET"
        assert len(document["links"]) == 7

    def test_restored_topology_validates_and_routes(self):
        from repro.core.vra import VirtualRoutingAlgorithm

        original = build_grnet_topology()
        apply_traffic_sample(original, "8am")
        restored = topology_from_dict(topology_to_dict(original))
        restored.validate()
        decision = VirtualRoutingAlgorithm(restored).decide(
            "U2", "m", holders=["U4", "U5"]
        )
        assert decision.chosen_uid == "U4"  # corrected Experiment A


class TestTopologyErrors:
    def test_missing_keys_rejected(self):
        with pytest.raises(SerializationError):
            topology_from_dict({"nodes": []})
        with pytest.raises(SerializationError):
            topology_from_dict({"nodes": [{"name": "no-uid"}], "links": []})

    def test_malformed_capacity_rejected(self):
        document = {
            "nodes": [{"uid": "A"}, {"uid": "B"}],
            "links": [{"a": "A", "b": "B", "capacity_mbps": "plenty"}],
        }
        with pytest.raises(SerializationError):
            topology_from_dict(document)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            load_topology(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_topology(path)
