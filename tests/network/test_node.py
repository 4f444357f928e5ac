"""Unit tests for Node."""

import pytest

from repro.network.node import Node


class TestNode:
    def test_name_defaults_to_uid(self):
        assert Node("U1").name == "U1"

    def test_explicit_name(self):
        assert Node("U1", name="Athens").name == "Athens"

    def test_empty_uid_rejected(self):
        with pytest.raises(ValueError):
            Node("")

    def test_attributes_dict_is_per_instance(self):
        a, b = Node("A"), Node("B")
        a.attributes["x"] = 1
        assert "x" not in b.attributes
