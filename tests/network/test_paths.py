"""Unit tests for the Path value object."""

import pytest

from repro.network.routing.paths import Path


class TestPath:
    def test_basic_properties(self):
        path = Path(nodes=("U2", "U1", "U6", "U5"), cost=0.315)
        assert path.source == "U2"
        assert path.hop_count == 3

    def test_single_node_path(self):
        path = Path(nodes=("U1",), cost=0.0)
        assert path.source == "U1"
        assert path.hop_count == 0

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Path(nodes=(), cost=0.0)

    def test_reversed_preserves_cost(self):
        path = Path(nodes=("A", "B", "C"), cost=2.5)
        reverse = path.reversed()
        assert reverse.nodes == ("C", "B", "A")
        assert reverse.cost == 2.5

    def test_as_label_matches_paper_format(self):
        assert Path(nodes=("U2", "U1", "U6", "U5"), cost=0.0).as_label() == "U2,U1,U6,U5"

    def test_frozen(self):
        path = Path(nodes=("A",), cost=0.0)
        with pytest.raises(AttributeError):
            path.cost = 1.0  # type: ignore[misc]
