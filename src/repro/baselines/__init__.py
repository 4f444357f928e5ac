"""Baseline policies the paper's algorithms are benchmarked against.

* :mod:`repro.baselines.selection` — server-selection alternatives to the
  VRA (random, min-hop, static nearest, origin-only);
* :mod:`repro.baselines.caching` — cache-policy alternatives to the DMA
  (no cache, LRU, full replication), built as placement kinds;
* :mod:`repro.baselines.switching` — mid-stream switching alternatives
  (never switch, periodic recompute) wrapped around any decide function.
"""

from repro.baselines.caching import (
    FullReplicationPolicy,
    LruCachePolicy,
    NoCachePolicy,
)
from repro.baselines.selection import (
    HomeOnlySelection,
    MinHopSelection,
    RandomSelection,
    StaticNearestSelection,
)
from repro.baselines.switching import NeverSwitch, PeriodicRecompute

__all__ = [
    "FullReplicationPolicy",
    "HomeOnlySelection",
    "LruCachePolicy",
    "MinHopSelection",
    "NeverSwitch",
    "NoCachePolicy",
    "PeriodicRecompute",
    "RandomSelection",
    "StaticNearestSelection",
]
