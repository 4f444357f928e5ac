"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch one type to handle anything the VoD service raises while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation engine."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled in the past or after shutdown."""


class TopologyError(ReproError):
    """Raised for malformed network topologies (unknown nodes, dup links...)."""


class LinkCapacityError(ReproError):
    """Raised when a bandwidth reservation exceeds a link's capacity."""


class FlowError(ReproError):
    """Raised for invalid flow operations (double release, unknown flow)."""


class DatabaseError(ReproError):
    """Raised for invalid service-database operations."""


class AccessDeniedError(DatabaseError):
    """Raised when a full-access handle touches limited-access attributes."""


class DuplicateEntryError(DatabaseError):
    """Raised when registering a server/link/title that already exists."""

class MissingEntryError(DatabaseError):
    """Raised when looking up a server/link/title that was never registered."""


class StorageError(ReproError):
    """Raised for disk/array misuse (overflow, unknown video...)."""


class StripingError(StorageError):
    """Raised for invalid striping layouts (zero disks, zero cluster size)."""


class CacheError(StorageError):
    """Raised for invalid cache operations."""


class AdmissionError(ReproError):
    """Raised when a video server cannot admit another stream."""


class RoutingError(ReproError):
    """Raised when no route / no candidate server can satisfy a request."""


class TitleUnavailableError(RoutingError):
    """Raised when no server in the network holds the requested title."""


class NoReachableHolderError(RoutingError):
    """Raised when holders exist but none is reachable from the home server.

    The partition case of the VRA: servers answered the availability poll,
    yet every least-cost path from the home server is severed (link
    failures).  Distinguished from the generic :class:`RoutingError` so
    resilience-aware callers (session retry/backoff) can treat it as a
    transient condition.
    """


class FaultInjectionError(ReproError):
    """Raised for invalid fault schedules or injector misuse."""


class ServiceError(ReproError):
    """Raised for VoD-service level failures (bad initialisation etc.)."""


class WorkloadError(ReproError):
    """Raised for invalid workload-generator parameters."""


class SnmpError(ReproError):
    """Raised for invalid SNMP agent/collector operations."""
