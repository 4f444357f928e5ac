"""The in-memory service database.

One :class:`ServiceDatabase` instance backs the whole VoD service.  It keeps
one :class:`~repro.database.records.ServerEntry` per video server, one
:class:`~repro.database.records.LinkEntry` per network link and a global
title catalog, plus a reverse index from title to the servers advertising
it — the list the VRA's "Make a list of all the servers on the network that
have the requested video title" step reads.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set, Tuple

from repro.database.access import AccessLevel, DatabaseHandle
from repro.database.records import LinkEntry, LinkStats, ServerEntry, TitleInfo
from repro.errors import DuplicateEntryError, MissingEntryError


class ServiceDatabase:
    """Authoritative state store of the VoD service."""

    def __init__(self):
        self._servers: Dict[str, ServerEntry] = {}
        self._links: Dict[str, LinkEntry] = {}
        self._titles: Dict[str, TitleInfo] = {}
        self._title_locations: Dict[str, Set[str]] = {}
        #: Resident fraction per (title, server) advertisement, stored only
        #: when below 1.0 — servers registered through ``ServerEntry``
        #: title sets and plain advertisements are full holders by default.
        self._holder_fractions: Dict[Tuple[str, str], float] = {}
        self._locations_version = 0
        self._link_stats_version = 0

    @property
    def link_stats_version(self) -> int:
        """Monotonic counter bumped on every link-entry write (once per
        SNMP collection round, admin update or runtime link registration).

        The paper-faithful VRA reads link usage from this database, so any
        epoch that embeds this counter is guaranteed to change whenever the
        VRA's routing inputs could have changed — the contract the
        epoch-versioned routing cache relies on."""
        return self._link_stats_version

    @property
    def title_locations_version(self) -> int:
        """Monotonic counter bumped whenever any title's holder list
        changes (advertisements and withdrawals).  Equal values guarantee
        every :meth:`servers_with_title` answer is unchanged — one input
        of the VRA epoch memo's token (its availability part)."""
        return self._locations_version

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
        return entry

    def register_link(self, entry: LinkEntry) -> LinkEntry:
        """Add a link entry.

        Raises:
            DuplicateEntryError: If the link name is already registered.
        """
        if entry.link_name in self._links:
            raise DuplicateEntryError(f"link {entry.link_name!r} already registered")
        self._links[entry.link_name] = entry
        self._link_stats_version += 1
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

    def servers_with_title(self, title_id: str, min_fraction: float = 0.0) -> List[str]:
        """Uids of servers advertising a title, sorted for determinism.

        Args:
            title_id: The title to look up.
            min_fraction: Keep only holders advertising at least this
                resident fraction.  The VRA passes 1.0 so prefix holders
                never enter the full-holder candidate list; the default
                0.0 returns every advertisement.
        """
        self.title_info(title_id)  # raise MissingEntryError on unknown title
        holders = self._title_locations.get(title_id, ())
        if min_fraction <= 0.0 or not self._holder_fractions:
            return sorted(holders)
        return sorted(
            uid
            for uid in holders
            if self._holder_fractions.get((title_id, uid), 1.0)
            >= min_fraction - 1e-9
        )

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
        if fraction >= 1.0 - 1e-9:
            self._holder_fractions.pop((title_id, server_uid), None)
        else:
            self._holder_fractions[(title_id, server_uid)] = fraction
        self._locations_version += 1

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
        self._holder_fractions.pop((title_id, server_uid), None)
        self._locations_version += 1

    def holds_title(self, server_uid: str, title_id: str) -> bool:
        """True when the server currently advertises the title (any
        fraction)."""
        return server_uid in self._title_locations.get(title_id, ())

    def holder_fraction(self, title_id: str, server_uid: str) -> float:
        """Advertised resident fraction of a holder: 1.0 for a full holder
        (including pre-fraction advertisements), the advertised fraction
        for a prefix/partial holder, 0.0 for a non-holder."""
        if server_uid not in self._title_locations.get(title_id, ()):
            return 0.0
        return self._holder_fractions.get((title_id, server_uid), 1.0)

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
        contract), whether or not the value moved: the token says when
        to rebuild, nothing records what moved (DESIGN.md §5b.7).
        """
        self.link_entry(link_name).latest_stats = stats
        self._link_stats_version += 1

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
            self._link_stats_version += 1

    def touch_links(self, link_names: Iterable[str]) -> None:
        """Mark links whose *routing-visible* weight changed without a
        new SNMP sample (staleness-guard inflation toggles, link-breaker
        trips and resets).

        The entries themselves are untouched — the adjustment lives in
        the service's weight provider — but the epoch counter bumps, so
        the next decision rebuilds the weight table and searches under
        it.  Cache invalidation thereby rides the existing machinery
        with no new paths.
        """
        touched = False
        for link_name in link_names:
            self.link_entry(link_name)  # validate
            touched = True
        if touched:
            self._link_stats_version += 1

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
