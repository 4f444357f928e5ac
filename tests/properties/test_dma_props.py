"""Property-based tests: DMA cache invariants under arbitrary request
streams (paper Figure 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import PlacementAction, WholeTitleDma
from repro.storage.array import DiskArray
from repro.storage.video import VideoTitle

CATALOG = [f"t{i}" for i in range(8)]
SIZES = {tid: 40.0 + 17.0 * i for i, tid in enumerate(CATALOG)}


def video(title_id: str) -> VideoTitle:
    return VideoTitle(title_id, size_mb=SIZES[title_id], duration_s=600.0)


request_streams = st.lists(st.sampled_from(CATALOG), min_size=1, max_size=120)
greedy_flags = st.booleans()


@given(request_streams, greedy_flags)
@settings(max_examples=80, deadline=None)
def test_capacity_never_exceeded(stream, greedy):
    array = DiskArray(disk_count=3, disk_capacity_mb=70.0, cluster_mb=20.0)
    dma = WholeTitleDma(array, evict_until_fits=greedy)
    for title_id in stream:
        dma.on_request(video(title_id))
        for index in range(array.disk_count):
            disk = array.disk(index)
            assert disk.used_mb <= disk.capacity_mb + 1e-9


@given(request_streams, greedy_flags)
@settings(max_examples=80, deadline=None)
def test_result_reflects_cache_state(stream, greedy):
    array = DiskArray(disk_count=3, disk_capacity_mb=70.0, cluster_mb=20.0)
    dma = WholeTitleDma(array, evict_until_fits=greedy)
    for title_id in stream:
        result = dma.on_request(video(title_id))
        assert result.cached == array.has_video(title_id)
        assert result.points == dma.points_of(title_id)


@given(request_streams)
@settings(max_examples=80, deadline=None)
def test_eviction_only_of_strictly_less_popular(stream):
    """Every evicted victim had strictly fewer points than the newcomer at
    eviction time (the Figure 2 comparison)."""
    array = DiskArray(disk_count=3, disk_capacity_mb=70.0, cluster_mb=20.0)
    dma = WholeTitleDma(array)
    for title_id in stream:
        points_before = {tid: dma.points_of(tid) for tid in CATALOG}
        result = dma.on_request(video(title_id))
        if result.evicted:
            newcomer_points = points_before[title_id] + 1  # the pass adds one
            for victim in result.evicted:
                assert points_before[victim] < newcomer_points


@given(request_streams, greedy_flags)
@settings(max_examples=80, deadline=None)
def test_points_monotone_nondecreasing(stream, greedy):
    array = DiskArray(disk_count=3, disk_capacity_mb=70.0, cluster_mb=20.0)
    dma = WholeTitleDma(array, evict_until_fits=greedy)
    previous = {tid: 0 for tid in CATALOG}
    for title_id in stream:
        dma.on_request(video(title_id))
        for tid in CATALOG:
            assert dma.points_of(tid) >= previous[tid]
            previous[tid] = dma.points_of(tid)


@given(request_streams, greedy_flags)
@settings(max_examples=80, deadline=None)
def test_hits_never_mutate_cache_contents(stream, greedy):
    array = DiskArray(disk_count=3, disk_capacity_mb=70.0, cluster_mb=20.0)
    dma = WholeTitleDma(array, evict_until_fits=greedy)
    for title_id in stream:
        before = array.stored_title_ids()
        result = dma.on_request(video(title_id))
        if result.action is PlacementAction.HIT:
            assert array.stored_title_ids() == before


@given(request_streams, greedy_flags)
@settings(max_examples=80, deadline=None)
def test_byte_accounting_matches_stored_set(stream, greedy):
    """Bytes on disk always equal the sum of the resident videos' sizes —
    no partial residue survives any eviction path."""
    array = DiskArray(disk_count=3, disk_capacity_mb=70.0, cluster_mb=20.0)
    dma = WholeTitleDma(array, evict_until_fits=greedy)
    for title_id in stream:
        dma.on_request(video(title_id))
        total = sum(SIZES[tid] for tid in array.stored_title_ids())
        assert abs(array.used_mb - total) < 1e-6
