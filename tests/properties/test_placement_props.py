"""Property-based tests: fractional-residency invariants of the prefix
and popularity-weighted partial placement policies under arbitrary
request streams."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import PopularityWeightedPartial, PrefixReplication
from repro.storage.array import DiskArray
from repro.storage.video import VideoTitle

CATALOG = [f"t{i}" for i in range(8)]
SIZES = {tid: 60.0 + 35.0 * i for i, tid in enumerate(CATALOG)}
MINUTES = {tid: 10.0 + 12.0 * i for i, tid in enumerate(CATALOG)}


def video(title_id: str) -> VideoTitle:
    return VideoTitle(
        title_id, size_mb=SIZES[title_id], duration_s=MINUTES[title_id] * 60.0
    )


def make_array() -> DiskArray:
    return DiskArray(disk_count=3, disk_capacity_mb=70.0, cluster_mb=20.0)


request_streams = st.lists(st.sampled_from(CATALOG), min_size=1, max_size=100)
policy_factories = st.sampled_from(
    [
        lambda a: PrefixReplication(a, prefix_minutes=8.0),
        lambda a: PrefixReplication(a, prefix_minutes=30.0),
        lambda a: PopularityWeightedPartial(a, floor_fraction=0.15),
        lambda a: PopularityWeightedPartial(a, floor_fraction=0.6),
    ]
)


@given(request_streams, policy_factories)
@settings(max_examples=60, deadline=None)
def test_resident_fraction_always_in_unit_interval(stream, factory):
    array = make_array()
    policy = factory(array)
    for title_id in stream:
        result = policy.on_request(video(title_id))
        assert 0.0 <= result.resident_fraction <= 1.0
        for tid in CATALOG:
            assert 0.0 <= array.resident_fraction(tid) <= 1.0


@given(request_streams, policy_factories)
@settings(max_examples=60, deadline=None)
def test_capacity_never_exceeded(stream, factory):
    array = make_array()
    policy = factory(array)
    for title_id in stream:
        policy.on_request(video(title_id))
        assert array.used_mb <= array.total_capacity_mb + 1e-9
        for index in range(array.disk_count):
            disk = array.disk(index)
            assert disk.used_mb <= disk.capacity_mb + 1e-9


@given(request_streams, policy_factories)
@settings(max_examples=60, deadline=None)
def test_result_fraction_matches_array_state(stream, factory):
    array = make_array()
    policy = factory(array)
    for title_id in stream:
        result = policy.on_request(video(title_id))
        assert result.resident_fraction == array.resident_fraction(title_id)
        assert result.cached == array.has_video(title_id)


@given(request_streams, policy_factories)
@settings(max_examples=60, deadline=None)
def test_full_and_partial_residency_are_disjoint(stream, factory):
    array = make_array()
    policy = factory(array)
    for title_id in stream:
        policy.on_request(video(title_id))
        resident = array.resident_title_ids()
        assert set(array.stored_title_ids()) <= set(resident)
        for tid in CATALOG:  # full, partial or absent: exactly one
            fraction = array.resident_fraction(tid)
            if array.has_video(tid):
                assert fraction == 1.0
            elif tid in resident:
                assert 0.0 < fraction < 1.0
            else:
                assert fraction == 0.0


@given(request_streams, policy_factories)
@settings(max_examples=60, deadline=None)
def test_fractions_never_shrink_without_eviction(stream, factory):
    """A title's resident fraction only moves up (extension) or to zero
    (whole-segment eviction) — never partially down."""
    array = make_array()
    policy = factory(array)
    previous = {tid: 0.0 for tid in CATALOG}
    for title_id in stream:
        policy.on_request(video(title_id))
        for tid in CATALOG:
            now = array.resident_fraction(tid)
            assert now >= previous[tid] or now == 0.0
            previous[tid] = now
