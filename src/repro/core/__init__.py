"""The paper's primary contribution.

* :mod:`repro.core.lvn` — the link-validation equations (1)-(4);
* :mod:`repro.core.vra` — the Virtual Routing Algorithm (Figure 5);
* :mod:`repro.core.session` — per-cluster streaming with dynamic
  server switching;
* :mod:`repro.core.service` — the :class:`~repro.core.service.VoDService`
  facade wiring database, SNMP, servers and the algorithms together.
"""

from repro.core.lvn import (
    DEFAULT_NORMALIZATION_CONSTANT,
    link_traffic,
    link_utilization_term,
    link_validation_number,
    link_value,
    node_validation,
    weight_table,
)
from repro.core.service import ServiceConfig, VoDService
from repro.core.session import SessionRecord, StreamingSession
from repro.core.vra import VirtualRoutingAlgorithm, VraDecision

__all__ = [
    "DEFAULT_NORMALIZATION_CONSTANT",
    "ServiceConfig",
    "SessionRecord",
    "StreamingSession",
    "VirtualRoutingAlgorithm",
    "VoDService",
    "VraDecision",
    "link_traffic",
    "link_utilization_term",
    "link_validation_number",
    "link_value",
    "node_validation",
    "weight_table",
]
