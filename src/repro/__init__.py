"""repro — a reproduction of "A Dynamic Distributed Video on Demand Service"
(Bouras, Kapoulas, Konidaris, Sevasti; ICDCS 2000).

The package implements the paper's two algorithms and every substrate they
run on:

* **DMA** — the Disk Manipulation Algorithm: popularity ("most popular")
  caching of whole video titles per server, striped cyclically across the
  server's disks — now one of several placement policies behind the
  :class:`~repro.placement.base.PlacementPolicy` interface, next to prefix
  replication and popularity-weighted partial caching
  (:mod:`repro.placement`, :mod:`repro.storage`);
* **VRA** — the Virtual Routing Algorithm: LVN link weighting (equations
  1-4) plus Dijkstra server selection, re-evaluated per cluster for
  dynamic mid-stream switching (:mod:`repro.core.vra`,
  :mod:`repro.core.session`);
* substrates: a discrete-event simulator (:mod:`repro.sim`), a network
  model with flow accounting (:mod:`repro.network`), simulated SNMP
  statistics (:mod:`repro.snmp`), the service database
  (:mod:`repro.database`), video servers (:mod:`repro.server`) and
  clients (:mod:`repro.client`);
* the paper's GRNET case study — topology, Table 2 traffic, Tables 3-5 and
  Experiments A-D (:mod:`repro.network.grnet`,
  :mod:`repro.experiments.casestudy`);
* baselines and workload generators for the comparison benchmarks
  (:mod:`repro.baselines`, :mod:`repro.workload`).

Quickstart::

    from repro import Simulator, VoDService, VideoTitle
    from repro.network.grnet import build_grnet_topology

    sim = Simulator()
    service = VoDService(sim, build_grnet_topology())
    service.seed_title("U4", VideoTitle("movie-1", size_mb=900, duration_s=5400))
    service.attach_access_network("10.2.0", "U2")
    service.start()
    request, session, process = service.request_by_home("U2", "movie-1")
    sim.run(until=7200)
    print(session.record.servers_used, session.record.startup_delay_s)
"""

from repro.core.lvn import link_validation_number, weight_table
from repro.placement.base import (
    PlacementAction,
    PlacementConfig,
    PlacementPolicy,
    PlacementResult,
)
from repro.placement.partial import PopularityWeightedPartial
from repro.placement.prefix import PrefixReplication
from repro.placement.whole_title import WholeTitleDma
from repro.core.service import ServiceConfig, VoDService
from repro.core.session import SessionRecord, StreamingSession
from repro.core.vra import VirtualRoutingAlgorithm, VraDecision
from repro.client.client import Client
from repro.network.link import Link
from repro.network.node import Node
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle

__version__ = "1.0.0"

__all__ = [
    "Client",
    "Link",
    "Node",
    "PlacementAction",
    "PlacementConfig",
    "PlacementPolicy",
    "PlacementResult",
    "PopularityWeightedPartial",
    "PrefixReplication",
    "ServiceConfig",
    "SessionRecord",
    "Simulator",
    "StreamingSession",
    "Topology",
    "VideoTitle",
    "VirtualRoutingAlgorithm",
    "VoDService",
    "VraDecision",
    "WholeTitleDma",
    "link_validation_number",
    "weight_table",
    "__version__",
]
