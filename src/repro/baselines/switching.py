"""Mid-stream switching baselines (DESIGN.md X1 ablation).

The paper's sessions re-run the VRA before *every* cluster.  These wrappers
change that cadence while keeping the underlying decision function intact,
so the switching ablation isolates exactly one variable:

* :class:`NeverSwitch` — decide once at session start, stick with it (the
  effect the paper warns about: "if we continue to download the video from
  the same server, we compromise the system's attempts to impose some kind
  of QoS");
* :class:`PeriodicRecompute` — re-decide every N clusters (N=1 equals the
  paper's always-recompute behaviour).

Both are callables compatible with the ``decide`` argument of
:class:`repro.core.session.StreamingSession`.  A decision they hold over
several clusters is a whole-title one (the wrapped decision asked with
``None``): its source holds every cluster, whereas a partial copy chosen
for one cluster may not hold the next.  Under whole-title placements the
two are the same decision.
"""

from __future__ import annotations

from typing import Optional

from repro.core.session import DecideFn
from repro.core.vra import VraDecision
from repro.errors import ReproError


class NeverSwitch:
    """Freeze the first decision for the whole session."""

    def __init__(self, decide: DecideFn):
        self._decide = decide
        self._frozen: Optional[VraDecision] = None
        self.underlying_calls = 0

    def __call__(self, cluster: int) -> VraDecision:
        if self._frozen is None:
            self._frozen = self._decide(None)
            self.underlying_calls += 1
        return self._frozen


class PeriodicRecompute:
    """Re-run the underlying decision every ``period`` clusters.

    Args:
        decide: The wrapped decision function (usually the service VRA).
        period: Clusters between re-decisions; 1 = recompute always.
    """

    def __init__(self, decide: DecideFn, period: int):
        if period < 1:
            raise ReproError(f"recompute period must be >= 1, got {period}")
        self._decide = decide
        self.period = period
        self._calls = 0
        self._current: Optional[VraDecision] = None
        self.underlying_calls = 0

    def __call__(self, cluster: int) -> VraDecision:
        if self._current is None or self._calls % self.period == 0:
            self._current = self._decide(None)
            self.underlying_calls += 1
        self._calls += 1
        return self._current
