"""Property-based tests: the database's title-location index stays
consistent under arbitrary advertise/withdraw sequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.records import ServerEntry, TitleInfo
from repro.database.store import ServiceDatabase
from repro.errors import DuplicateEntryError, MissingEntryError

SERVERS = ["U1", "U2", "U3"]
TITLES = ["t1", "t2", "t3", "t4"]

operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.sampled_from(SERVERS),
        st.sampled_from(TITLES),
    ),
    min_size=1,
    max_size=80,
)


def fresh_database() -> ServiceDatabase:
    database = ServiceDatabase()
    for uid in SERVERS:
        database.register_server(ServerEntry(uid))
    for title_id in TITLES:
        database.register_title(TitleInfo(title_id, title_id, 100.0, 600.0))
    return database


@given(operations)
@settings(max_examples=100, deadline=None)
def test_location_index_matches_server_entries(ops):
    database = fresh_database()
    for op, uid, title_id in ops:
        if op == "add":
            database.add_title_to_server(uid, title_id)
        else:
            try:
                database.remove_title_from_server(uid, title_id)
            except MissingEntryError:
                pass  # withdrawing a non-advertised title is an error; skip
        # Invariant: the reverse index equals the per-server sets.
        for title in TITLES:
            holders = set(database.servers_with_title(title))
            expected = {
                server
                for server in SERVERS
                if title in database.server_title_ids(server)
            }
            assert holders == expected, (title, holders, expected)


@given(operations)
@settings(max_examples=100, deadline=None)
def test_add_remove_are_inverse(ops):
    database = fresh_database()
    model = {uid: set() for uid in SERVERS}
    for op, uid, title_id in ops:
        if op == "add":
            database.add_title_to_server(uid, title_id)
            model[uid].add(title_id)
        else:
            if title_id in model[uid]:
                database.remove_title_from_server(uid, title_id)
                model[uid].discard(title_id)
            else:
                try:
                    database.remove_title_from_server(uid, title_id)
                    raise AssertionError("expected MissingEntryError")
                except MissingEntryError:
                    pass
    for uid in SERVERS:
        assert database.server_title_ids(uid) == model[uid]


index_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(SERVERS + ["U4"]),
            st.sampled_from(TITLES),
            st.sampled_from([0.25, 0.5, 1.0 - 1e-10, 1.0]),
        ),
        st.tuples(
            st.just("remove"), st.sampled_from(SERVERS + ["U4"]),
            st.sampled_from(TITLES), st.just(0.0),
        ),
        st.tuples(
            st.just("register"), st.just("U4"), st.sampled_from(TITLES), st.just(0.0)
        ),
    ),
    min_size=1,
    max_size=80,
)


def from_scratch_holders(database: ServiceDatabase, title_id: str, fraction: float = 1.0):
    """The holders of ``fraction`` of a title recomputed from the raw
    location and fraction stores: every advertiser whose fraction reaches
    it, sorted."""
    return tuple(sorted(
        uid
        for uid in database._title_locations.get(title_id, ())
        if database._holder_fractions.get(title_id, {}).get(uid, 1.0) >= fraction - 1e-9
    ))


@given(index_operations)
@settings(max_examples=150, deadline=None)
def test_full_holder_index_matches_a_from_scratch_sort(ops):
    database = fresh_database()
    for op, uid, title_id, fraction in ops:
        try:
            if op == "add":
                database.add_title_to_server(uid, title_id, fraction)
            elif op == "remove":
                database.remove_title_from_server(uid, title_id)
            else:  # a late server registering with a title it already holds
                database.register_server(ServerEntry(uid, title_ids={title_id}))
        except (MissingEntryError, DuplicateEntryError):
            pass  # U4 before it registers, a withdrawn title, a re-register
        for title in TITLES:
            full = from_scratch_holders(database, title)
            assert database.full_holders(title) == full, (title, ops)
            # The 100 MB titles' first 25 / 50 / 60 MB: a partial copy
            # covering them adds its holder, else the full list answers.
            for through_mb, fraction in ((25.0, 0.25), (50.0, 0.5), (60.0, 0.6)):
                expected = from_scratch_holders(database, title, fraction)
                got = database.cluster_holders(title, through_mb)
                assert got == (None if expected == full else expected), (title, through_mb, ops)
    with pytest.raises(MissingEntryError):
        database.full_holders("no-such-title")
    with pytest.raises(MissingEntryError):
        database.servers_with_title("no-such-title")
