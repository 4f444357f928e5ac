"""Reproducible named random-number streams.

Distributed-systems simulations need *independent* randomness per concern
(arrivals at Patra must not perturb title choices at Athens when a parameter
changes).  :class:`RngRegistry` derives one ``random.Random`` stream per name
from a master seed, so adding a new consumer never shifts existing streams.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngRegistry:
    """A family of independent, deterministically seeded RNG streams.

    Example::

        rngs = RngRegistry(master_seed=42)
        arrivals = rngs.stream("arrivals")       # stable across runs
        titles = rngs.stream("titles.athens")    # independent of arrivals
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive_seed(name))
        return self._streams[name]

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
