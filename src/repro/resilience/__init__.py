"""Reactive resilience: session failover and the staleness guard.

The package turns fault *events* into session *recoveries*:

* :class:`~repro.resilience.supervisor.SessionSupervisor` indexes active
  streaming sessions by serving server and by the links of their current
  delivery path, preempts them the moment a fault hits one of those
  resources, and migrates the stream to a surviving holder;
* :class:`~repro.resilience.staleness.StalenessGuard` inflates the LVN
  weights of links whose SNMP sample is older than ``max_stats_age_s``
  (blackouts included) and marks the resulting decisions ``degraded``.

Everything here is driven by the simulation clock and plain counters, so
seeded chaos runs replay bit-for-bit; with the corresponding
:class:`~repro.core.service.ServiceConfig` knobs at their defaults none
of these objects is even constructed and legacy runs stay byte-identical.
"""

from repro.resilience.staleness import StalenessGuard
from repro.resilience.supervisor import SessionSupervisor

__all__ = [
    "SessionSupervisor",
    "StalenessGuard",
]
