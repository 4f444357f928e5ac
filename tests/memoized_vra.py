"""A standalone VRA behind its epoch memo, flushed the way
:class:`~repro.core.service.VoDService` flushes its own."""

from repro.core.vra import VirtualRoutingAlgorithm
from repro.network.feed import LINK_STATS, STATE, TRAFFIC


def memoized_vra(topology, db=None, **kwargs):
    """A VRA with its memo on, fully flushed by every ``STATE`` publish of
    the topology and by every live-stats publish: the database's
    ``LINK_STATS`` when ``db`` is given (the paper-faithful path), else
    the topology's ``TRAFFIC`` (the ground-truth path)."""
    vra = VirtualRoutingAlgorithm(topology, memo=True, **kwargs)
    topology.feed.subscribe(STATE, vra.cache.flush)
    if db is None:
        topology.feed.subscribe(TRAFFIC, vra.cache.flush)
    else:
        db.feed.subscribe(LINK_STATS, vra.cache.flush)
    return vra
