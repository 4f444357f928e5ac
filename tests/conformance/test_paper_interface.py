"""Conformance: the paper's database interface, reached on purpose.

The paper fronts the service database with two modules: a full-access
module through which users browse and search the catalogue, and a
limited-access module "to which only the administrators of the service
can have access", through which the SNMP module writes link samples and
administrators change server configuration.  No CLI path browses the
catalogue or configures a server by hand, so these tests are the callers
that keep that interface (``benchmarks/census.py`` names them).
"""

import pytest

from repro.core.service import ServiceConfig, VoDService
from repro.database.access import AccessLevel, DatabaseHandle
from repro.database.records import LinkStats
from repro.errors import AccessDeniedError
from repro.network.grnet import build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


@pytest.fixture
def database():
    service = VoDService(Simulator(), build_grnet_topology(), ServiceConfig())
    service.seed_title("U4", VideoTitle("movie", size_mb=600.0, duration_s=3_600.0, name="Movie"))
    return service.database


class TestDatabaseModules:
    def test_each_module_is_a_database_handle_at_its_level(self, database):
        user, admin = database.full_access(), database.limited_access()
        assert isinstance(user, DatabaseHandle) and isinstance(admin, DatabaseHandle)
        assert (user.level, admin.level) == (AccessLevel.FULL, AccessLevel.LIMITED)

    def test_users_browse_and_search_the_catalogue(self, database):
        user = database.full_access()
        assert [title.title_id for title in user.list_titles()] == ["movie"]
        assert [title.title_id for title in user.search_titles("MOV")] == ["movie"]
        assert user.servers_with_title("movie") == ["U4"]
        assert user.server_title_ids("U4") == {"movie"}
        assert database.has_title("movie") and not database.has_title("other")
        with pytest.raises(AccessDeniedError):
            user.link_entries()
        with pytest.raises(AccessDeniedError):
            user.update_server_config("U4", max_streams=1)

    def test_administrators_write_network_and_configuration(self, database):
        admin = database.limited_access()
        assert database.server_uids() == ["U1", "U2", "U3", "U4", "U5", "U6"]
        names = [entry.link_name for entry in admin.link_entries()]
        assert names == sorted(names) and "Patra-Athens" in names
        admin.update_link_stats("Patra-Athens", LinkStats(1.5, 0.75, 60.0))
        assert admin.link_entry("Patra-Athens").used_mbps == 1.5
        admin.update_server_config("U4", max_streams=3)
        assert admin.server_entry("U4").max_streams == 3
