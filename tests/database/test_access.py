"""Unit tests for the full/limited access split."""

import pytest

from repro.database.access import AccessLevel
from repro.database.records import LinkEntry, LinkStats, ServerEntry, TitleInfo
from repro.database.store import ServiceDatabase
from repro.errors import AccessDeniedError


@pytest.fixture
def db() -> ServiceDatabase:
    database = ServiceDatabase()
    database.register_server(ServerEntry("U1"))
    database.register_link(LinkEntry("U1-U2", ("U1", "U2"), total_bandwidth_mbps=2.0))
    database.register_title(TitleInfo("t1", "Movie", 900.0, 5400.0))
    database.add_title_to_server("U1", "t1")
    return database


class TestFullAccess:
    def test_catalog_operations_allowed(self, db):
        handle = db.full_access()
        assert handle.level is AccessLevel.FULL
        assert [t.title_id for t in handle.list_titles()] == ["t1"]
        assert handle.search_titles("mov")[0].title_id == "t1"
        assert handle.servers_with_title("t1") == ["U1"]
        assert handle.server_title_ids("U1") == {"t1"}

    def test_admin_reads_denied(self, db):
        handle = db.full_access()
        with pytest.raises(AccessDeniedError):
            handle.server_entry("U1")
        with pytest.raises(AccessDeniedError):
            handle.link_entry("U1-U2")
        with pytest.raises(AccessDeniedError):
            handle.link_entries()

    def test_admin_writes_denied(self, db):
        handle = db.full_access()
        with pytest.raises(AccessDeniedError):
            handle.update_link_stats("U1-U2", LinkStats(1.0, 0.5, 0.0))
        with pytest.raises(AccessDeniedError):
            handle.update_server_config("U1", max_streams=4)


class TestLimitedAccess:
    def test_catalog_operations_still_allowed(self, db):
        handle = db.limited_access()
        assert handle.servers_with_title("t1") == ["U1"]

    def test_admin_operations_allowed(self, db):
        handle = db.limited_access()
        assert handle.level is AccessLevel.LIMITED
        assert handle.server_entry("U1").server_uid == "U1"
        assert handle.link_entry("U1-U2").total_bandwidth_mbps == 2.0
        handle.update_link_stats("U1-U2", LinkStats(1.0, 0.5, 42.0))
        assert handle.link_entry("U1-U2").used_mbps == 1.0
        handle.update_server_config("U1", online=False)
        assert not handle.server_entry("U1").online

    def test_update_server_config(self, db):
        handle = db.limited_access()
        handle.update_server_config("U1", disk_capacity_mb=100.0)
        assert handle.server_entry("U1").disk_capacity_mb == 100.0
