"""Path value object shared by routing and the VRA."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Path:
    """A route through the network with its total cost.

    Attributes:
        nodes: Node uids from source to destination, inclusive.
        cost: Sum of link weights along the path (0 for a 1-node path).
    """

    nodes: Tuple[str, ...]
    cost: float

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a path must contain at least one node")

    @property
    def source(self) -> str:
        """First node of the path."""
        return self.nodes[0]

    @property
    def hop_count(self) -> int:
        """Number of links traversed."""
        return len(self.nodes) - 1

    def reversed(self) -> "Path":
        """The same path walked destination-to-source (same cost; the
        paper's Tables give paths as "U2,U1,U6,U5" but downloads follow the
        reverse direction)."""
        return Path(nodes=tuple(reversed(self.nodes)), cost=self.cost)

    def as_label(self) -> str:
        """Paper-style comma-joined node list, e.g. ``"U2,U1,U6,U5"``."""
        return ",".join(self.nodes)
