"""The in-memory service database.

One :class:`ServiceDatabase` instance backs the whole VoD service.  It keeps
one :class:`~repro.database.records.ServerEntry` per video server, one
:class:`~repro.database.records.LinkEntry` per network link and a global
title catalog, plus a reverse index from title to the servers advertising
it — the list the VRA's "Make a list of all the servers on the network that
have the requested video title" step reads.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.database.access import AccessLevel, DatabaseHandle
from repro.database.records import LinkEntry, LinkStats, ServerEntry, TitleInfo
from repro.errors import DuplicateEntryError, MissingEntryError
from repro.network.feed import LINK_STATS, LOCATIONS, ChangeFeed


class ServiceDatabase:
    """Authoritative state store of the VoD service."""

    def __init__(self, feed: Optional[ChangeFeed] = None):
        #: Its link-entry writes and holder-list moves publish here (a
        #: service passes its topology's feed).
        self.feed = feed if feed is not None else ChangeFeed()
        self._servers: Dict[str, ServerEntry] = {}
        self._links: Dict[str, LinkEntry] = {}
        self._titles: Dict[str, TitleInfo] = {}
        self._title_locations: Dict[str, Set[str]] = {}
        #: Advertised resident fraction by title, then by server, stored
        #: only when below 1.0 — servers registered through ``ServerEntry``
        #: title sets and plain advertisements are full holders by default.
        self._holder_fractions: Dict[str, Dict[str, float]] = {}
        #: Sorted uids of the full holders per title (fraction 1.0), kept
        #: by every advertise / withdraw so a decision reads, not sorts.
        self._full_holders: Dict[str, Tuple[str, ...]] = {}

    @property
    def link_stats_version(self) -> int:
        """Monotonic counter bumped on every link-entry write (once per
        SNMP collection round, admin update or runtime link registration).

        The paper-faithful VRA reads link usage from this database, so any
        epoch that embeds this counter is guaranteed to change whenever the
        VRA's routing inputs could have changed — the contract the
        epoch-versioned routing cache relies on.  It is the feed's
        ``LINK_STATS`` count."""
        return self.feed.counts[LINK_STATS]

    # ------------------------------------------------------------------ #
    # handles
    # ------------------------------------------------------------------ #
    def full_access(self) -> DatabaseHandle:
        """User-level handle (catalog browsing only)."""
        return DatabaseHandle(self, AccessLevel.FULL)

    def limited_access(self) -> DatabaseHandle:
        """Administrator-level handle (network + configuration attributes)."""
        return DatabaseHandle(self, AccessLevel.LIMITED)

    # ------------------------------------------------------------------ #
    # registration (service initialisation phase)
    # ------------------------------------------------------------------ #
    def register_server(self, entry: ServerEntry) -> ServerEntry:
        """Add a server entry.

        Raises:
            DuplicateEntryError: If the server uid is already registered.
        """
        if entry.server_uid in self._servers:
            raise DuplicateEntryError(f"server {entry.server_uid!r} already registered")
        self._servers[entry.server_uid] = entry
        for title_id in entry.title_ids:
            self._title_locations.setdefault(title_id, set()).add(entry.server_uid)
            self._index_full_holders(title_id)
        return entry

    def register_link(self, entry: LinkEntry) -> LinkEntry:
        """Add a link entry.

        Raises:
            DuplicateEntryError: If the link name is already registered.
        """
        if entry.link_name in self._links:
            raise DuplicateEntryError(f"link {entry.link_name!r} already registered")
        self._links[entry.link_name] = entry
        self.feed.publish(LINK_STATS, entry.link_name)
        return entry

    def register_title(self, info: TitleInfo) -> TitleInfo:
        """Add a title to the global catalog.

        Re-registering an identical record is a no-op, so several servers
        can declare the same title during initialisation.

        Raises:
            DuplicateEntryError: If the id exists with different attributes.
        """
        existing = self._titles.get(info.title_id)
        if existing is not None:
            if existing != info:
                raise DuplicateEntryError(
                    f"title {info.title_id!r} already registered with "
                    "different attributes"
                )
            return existing
        self._titles[info.title_id] = info
        self._title_locations.setdefault(info.title_id, set())
        return info

    # ------------------------------------------------------------------ #
    # catalog / title-location index
    # ------------------------------------------------------------------ #
    def list_titles(self) -> List[TitleInfo]:
        """All registered titles, sorted by id for stable output."""
        return [self._titles[tid] for tid in sorted(self._titles)]

    def search_titles(self, query: str) -> List[TitleInfo]:
        """Titles whose name contains ``query`` (case-insensitive)."""
        needle = query.lower()
        return [info for info in self.list_titles() if needle in info.name.lower()]

    def title_info(self, title_id: str) -> TitleInfo:
        """Catalog record for one title.

        Raises:
            MissingEntryError: If the title was never registered.
        """
        try:
            return self._titles[title_id]
        except KeyError:
            raise MissingEntryError(f"unknown title {title_id!r}") from None

    def has_title(self, title_id: str) -> bool:
        return title_id in self._titles

    def servers_with_title(self, title_id: str) -> List[str]:
        """Uids of every server advertising a title (any resident
        fraction), sorted for determinism; :meth:`full_holders` lists the
        full holders only."""
        self.title_info(title_id)  # raise MissingEntryError on unknown title
        return sorted(self._title_locations.get(title_id, ()))

    def full_holders(self, title_id: str) -> Tuple[str, ...]:
        """Sorted uids of the servers holding all of a title (advertised
        fraction 1.0), read from the index instead of sorted per call.

        Raises:
            MissingEntryError: If the title was never registered.
        """
        if title_id not in self._titles:
            raise MissingEntryError(f"unknown title {title_id!r}")
        return self._full_holders.get(title_id, ())

    def cluster_holders(self, title_id: str, through_mb: float) -> Optional[Tuple[str, ...]]:
        """The servers holding a title's first ``through_mb`` MB: every
        full holder plus each partial holder whose advertised fraction
        covers them (within 1e-9), sorted — or None when no partial copy
        covers them, and :meth:`full_holders` is the answer."""
        partials = self._holder_fractions.get(title_id)
        if not partials:
            return None
        size_mb = self._titles[title_id].size_mb
        needed = min(through_mb, size_mb) / size_mb - 1e-9
        covering = [uid for uid, fraction in partials.items() if fraction >= needed]
        if not covering:
            return None
        return tuple(sorted(self._full_holders.get(title_id, ()) + tuple(covering)))

    def _index_full_holders(self, title_id: str) -> None:
        """Rebuild one title's entry of the full-holder index."""
        partials = self._holder_fractions.get(title_id, ())
        self._full_holders[title_id] = tuple(sorted(
            uid
            for uid in self._title_locations.get(title_id, ())
            if uid not in partials
        ))

    def _set_fraction(self, title_id: str, server_uid: str, fraction: float) -> None:
        """Record a server's advertised fraction of a title; a full holder
        (1.0) and a withdrawn one keep no entry."""
        partials = self._holder_fractions.get(title_id)
        if fraction < 1.0 - 1e-9:
            if partials is None:
                partials = self._holder_fractions[title_id] = {}
            partials[server_uid] = fraction
        elif partials is not None:
            partials.pop(server_uid, None)
            if not partials:
                del self._holder_fractions[title_id]

    def add_title_to_server(
        self, server_uid: str, title_id: str, fraction: float = 1.0
    ) -> None:
        """Advertise a title on a server (placement-policy cache admission).

        Args:
            server_uid: The advertising server.
            title_id: The admitted title.
            fraction: Resident fraction advertised; below 1.0 marks a
                prefix/partial holder (re-advertising updates the
                fraction; reaching 1.0 promotes to a full holder).
        """
        entry = self.server_entry(server_uid)
        self.title_info(title_id)
        entry.title_ids.add(title_id)
        self._title_locations.setdefault(title_id, set()).add(server_uid)
        self._set_fraction(title_id, server_uid, fraction)
        self._index_full_holders(title_id)
        self.feed.publish(LOCATIONS, title_id)

    def remove_title_from_server(self, server_uid: str, title_id: str) -> None:
        """Withdraw a title from a server (placement-policy cache eviction).

        Raises:
            MissingEntryError: If the server does not advertise the title.
        """
        entry = self.server_entry(server_uid)
        if title_id not in entry.title_ids:
            raise MissingEntryError(
                f"server {server_uid!r} does not advertise title {title_id!r}"
            )
        entry.title_ids.discard(title_id)
        holders = self._title_locations.get(title_id)
        if holders:
            holders.discard(server_uid)
        self._set_fraction(title_id, server_uid, 1.0)  # drops a partial entry
        self._index_full_holders(title_id)
        self.feed.publish(LOCATIONS, title_id)

    def holds_title(self, server_uid: str, title_id: str) -> bool:
        """True when the server currently advertises the title (any
        fraction)."""
        return server_uid in self._title_locations.get(title_id, ())

    def server_title_ids(self, server_uid: str) -> Set[str]:
        """Copy of the title-id set advertised by one server."""
        return set(self.server_entry(server_uid).title_ids)

    # ------------------------------------------------------------------ #
    # entries
    # ------------------------------------------------------------------ #
    def server_entry(self, server_uid: str) -> ServerEntry:
        try:
            return self._servers[server_uid]
        except KeyError:
            raise MissingEntryError(f"unknown server {server_uid!r}") from None

    def server_uids(self) -> List[str]:
        """All registered server uids, sorted."""
        return sorted(self._servers)

    def link_entry(self, link_name: str) -> LinkEntry:
        try:
            return self._links[link_name]
        except KeyError:
            raise MissingEntryError(f"unknown link {link_name!r}") from None

    def link_entries(self) -> List[LinkEntry]:
        """All link entries, sorted by name."""
        return [self._links[name] for name in sorted(self._links)]

    # ------------------------------------------------------------------ #
    # limited-access mutations
    # ------------------------------------------------------------------ #
    def update_link_stats(self, link_name: str, stats: LinkStats) -> None:
        """Record the latest SNMP sample for one link (the admin write).

        Every write bumps :attr:`link_stats_version` (the routing-epoch
        contract), whether or not the value moved: the publish says when
        to rebuild, nothing records what moved (DESIGN.md §5b.7).
        """
        self.link_entry(link_name).latest_stats = stats
        self.feed.publish(LINK_STATS, link_name)

    def update_link_stats_round(self, samples: Mapping[str, LinkStats]) -> None:
        """Record one SNMP collection round: every sample is stored and
        :attr:`link_stats_version` bumps **once** — a round is one flush
        (DESIGN.md §5b.14).  An empty round (a baseline poll) bumps
        nothing; an unknown link raises before anything is stored.
        """
        entries = [self.link_entry(link_name) for link_name in samples]
        for entry, stats in zip(entries, samples.values()):
            entry.latest_stats = stats
        if entries:
            self.feed.publish(LINK_STATS)

    def touch_links(self, link_names: Iterable[str]) -> None:
        """Mark links whose *routing-visible* weight changed without a
        new SNMP sample (staleness-guard inflation toggles).

        The entries themselves are untouched — the adjustment lives in
        the service's weight provider — but the epoch counter bumps, so
        the next decision rebuilds the weight table and searches under
        it.  Cache invalidation thereby rides the existing machinery
        with no new paths.
        """
        names = list(link_names)
        for link_name in names:
            self.link_entry(link_name)  # validate
        if names:
            self.feed.publish(LINK_STATS, names)

    def update_server_config(self, server_uid: str, **attributes: object) -> None:
        """Update configuration attributes on a server entry.

        Raises:
            MissingEntryError: If the server or an attribute is unknown.
        """
        entry = self.server_entry(server_uid)
        for key, value in attributes.items():
            if not hasattr(entry, key) or key in ("server_uid", "title_ids"):
                raise MissingEntryError(
                    f"server entry has no configurable attribute {key!r}"
                )
            setattr(entry, key, value)
        entry.config_version += 1
