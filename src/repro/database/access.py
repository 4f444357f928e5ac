"""Access-control handles for the service database.

The paper's interface has a full-access web module for users and a
limited-access module "to which only the administrators of the service can
have access".  A :class:`DatabaseHandle` wraps the database with one of the
two levels; limited-access (administrative) operations called through a
full-access handle raise :class:`~repro.errors.AccessDeniedError`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Mapping, Set

from repro.errors import AccessDeniedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.database.records import LinkEntry, LinkStats, ServerEntry, TitleInfo
    from repro.database.store import ServiceDatabase


class AccessLevel(enum.Enum):
    """The two access levels of the paper's interface."""

    #: User level: may browse/search the catalog and see title locations.
    FULL = "full"
    #: Administrator level: may additionally read and write network and
    #: configuration attributes (the paper's "limited access" module).
    LIMITED = "limited"


class DatabaseHandle:
    """A view of the :class:`~repro.database.store.ServiceDatabase`.

    Full-access methods are available at both levels; administrative
    methods require :attr:`AccessLevel.LIMITED`.
    """

    def __init__(self, database: "ServiceDatabase", level: AccessLevel):
        self._database = database
        self.level = level

    def _require_admin(self, operation: str) -> None:
        if self.level is not AccessLevel.LIMITED:
            raise AccessDeniedError(
                f"operation {operation!r} requires the limited-access "
                "(administrator) module"
            )

    # ------------------------------------------------------------------ #
    # full-access (user) operations
    # ------------------------------------------------------------------ #
    def list_titles(self) -> List["TitleInfo"]:
        """All titles available anywhere in the service."""
        return self._database.list_titles()

    def search_titles(self, query: str) -> List["TitleInfo"]:
        """Case-insensitive substring search over title names."""
        return self._database.search_titles(query)

    def servers_with_title(self, title_id: str) -> List[str]:
        """Uids of servers currently advertising a title."""
        return self._database.servers_with_title(title_id)

    def server_title_ids(self, server_uid: str) -> Set[str]:
        """Title ids advertised by one server."""
        return self._database.server_title_ids(server_uid)

    # ------------------------------------------------------------------ #
    # limited-access (administrator / VRA) operations
    # ------------------------------------------------------------------ #
    def server_entry(self, server_uid: str) -> "ServerEntry":
        """Full server entry, including configuration attributes."""
        self._require_admin("server_entry")
        return self._database.server_entry(server_uid)

    def link_entry(self, link_name: str) -> "LinkEntry":
        """Full link entry, including bandwidth and SNMP stats."""
        self._require_admin("link_entry")
        return self._database.link_entry(link_name)

    def link_entries(self) -> List["LinkEntry"]:
        """All link entries."""
        self._require_admin("link_entries")
        return self._database.link_entries()

    def update_link_stats(self, link_name: str, stats: "LinkStats") -> None:
        """Write an SNMP sample into a link entry (the SNMP module's job)."""
        self._require_admin("update_link_stats")
        self._database.update_link_stats(link_name, stats)

    def update_link_stats_round(self, samples: Mapping[str, "LinkStats"]) -> None:
        """Write one whole SNMP collection round (one epoch bump)."""
        self._require_admin("update_link_stats_round")
        self._database.update_link_stats_round(samples)

    def update_server_config(self, server_uid: str, **attributes: object) -> None:
        """Change configuration attributes of a server entry."""
        self._require_admin("update_server_config")
        self._database.update_server_config(server_uid, **attributes)

