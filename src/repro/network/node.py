"""Network node model.

A node is a point of presence that may host a video server (all GRNET nodes
do in the case study) and terminates one or more links.  Nodes are identified
by a short unique id (``"U1"``..``"U6"`` in the paper) and carry a
human-readable name (the city).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(eq=False)
class Node:
    """A network node.

    Attributes:
        uid: Unique identifier within a topology (e.g. ``"U2"``).
        name: Human-readable label (e.g. ``"Patra"``); defaults to ``uid``.
        attributes: Free-form metadata (coordinates, AS number, ...).

    A topology keys its nodes by ``uid``; a node itself compares by
    identity.
    """

    uid: str
    name: str = ""
    attributes: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.uid:
            raise ValueError("node uid must be a non-empty string")
        if not self.name:
            self.name = self.uid
