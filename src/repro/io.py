"""JSON (de)serialisation for topologies.

The paper's service is configured by administrators entering node, link
and title information; this module gives that configuration a durable
format so deployments can be versioned, shared and fed to the CLI
(``repro simulate --topology net.json``).

Schema (all sizes in the units used throughout the library)::

    {
      "name": "GRNET",
      "nodes": [{"uid": "U1", "name": "Athens"}, ...],
      "links": [{"a": "U2", "b": "U1", "capacity_mbps": 2.0,
                 "name": "Patra-Athens", "background_mbps": 0.2}, ...]
    }
"""

from __future__ import annotations

import json
from pathlib import Path as FilePath
from typing import Dict, Union

from repro.errors import ReproError
from repro.network.link import Link
from repro.network.node import Node
from repro.network.topology import Topology

PathLike = Union[str, FilePath]


class SerializationError(ReproError):
    """Raised for malformed topology documents."""


# ---------------------------------------------------------------------- #
# topology
# ---------------------------------------------------------------------- #
def topology_to_dict(topology: Topology) -> Dict:
    """Serialise a topology (including current background traffic)."""
    return {
        "name": topology.name,
        "nodes": [
            {"uid": node.uid, "name": node.name} for node in topology.nodes()
        ],
        "links": [
            {
                "a": link.a_uid,
                "b": link.b_uid,
                "capacity_mbps": link.capacity_mbps,
                "name": link.name,
                "background_mbps": link.background_mbps,
                "online": link.online,
            }
            for link in topology.links()
        ],
    }


def topology_from_dict(document: Dict) -> Topology:
    """Build a topology from :func:`topology_to_dict` output.

    Raises:
        SerializationError: On missing keys or malformed entries.
    """
    try:
        topology = Topology(name=document.get("name", "network"))
        for node_doc in document["nodes"]:
            topology.add_node(
                Node(uid=node_doc["uid"], name=node_doc.get("name", ""))
            )
        for link_doc in document["links"]:
            link = Link(
                a_uid=link_doc["a"],
                b_uid=link_doc["b"],
                capacity_mbps=float(link_doc["capacity_mbps"]),
                name=link_doc.get("name", ""),
            )
            topology.add_link(link)
            link.set_background_mbps(float(link_doc.get("background_mbps", 0.0)))
            link.online = bool(link_doc.get("online", True))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed topology document: {exc}") from exc
    return topology


def save_topology(topology: Topology, path: PathLike) -> None:
    """Write a topology to a JSON file."""
    FilePath(path).write_text(
        json.dumps(topology_to_dict(topology), indent=2) + "\n", encoding="utf-8"
    )


def load_topology(path: PathLike) -> Topology:
    """Read a topology from a JSON file.

    Raises:
        SerializationError: On unreadable or malformed files.
    """
    try:
        document = json.loads(FilePath(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot load topology from {path}: {exc}") from exc
    return topology_from_dict(document)
