"""The one change feed: every input of a VRA decision publishes here.

The VRA (paper Figure 5) re-runs at every cluster boundary, so a changed
input — an SNMP round, a link or server going down, a stream slot, a
title's holders — must reach the epoch memo and the failover supervisor.
The object that changed calls :meth:`ChangeFeed.publish` with its kind
and a key, and the subscribers of that kind act on it: the memo is
flushed, a supervisor preempts or wakes a stall.  The topology owns the
feed; a service shares it with its database and its servers, and
subscribes its memo's flushes first (DESIGN.md §5b.14).
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

# Kinds, with the key each publishes.  The first five are decision
# inputs, each subscribed to a flush of the memo (TRAFFIC only on the
# ground-truth path); ``routing_epoch()`` reads the routing ones' counters.
LINK_STATS = 0  # a database link-entry write: the link name(s), None for a round
TRAFFIC = 1  # a link's used bandwidth moved: the link
STATE = 2  # a node or link joined, or a link flipped online state: it
AVAILABILITY = 3  # a server's poll answer may have moved: the server
LOCATIONS = 4  # a title's holder list moved: the title id
SERVER = 5  # a server flipped online state: the server
DISK = 6  # a disk died: its server
SNMP_ROUND = 7  # a collection round was written (a blacked-out one is not): None
KIND_COUNT = 8

Subscriber = Callable[[Any], None]


class ChangeFeed:
    """Counters and subscribers per kind.

    A publish bumps the kind's counter in :attr:`counts` (what
    ``routing_epoch()`` reads), then calls the kind's subscribers in
    subscription order, so a subscriber sees the counter already moved
    and every earlier subscriber already acted.
    """

    __slots__ = ("counts", "_subscribers")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * KIND_COUNT
        self._subscribers: List[Tuple[Subscriber, ...]] = [()] * KIND_COUNT

    def subscribe(self, kind: int, callback: Subscriber) -> None:
        """Call ``callback(key)`` after every later publish of ``kind``."""
        self._subscribers[kind] += (callback,)

    def publish(self, kind: int, key: Any = None) -> None:
        """Record one change of ``kind`` to ``key`` and tell its subscribers."""
        self.counts[kind] += 1
        for callback in self._subscribers[kind]:
            callback(key)
