"""Unit tests for the strip-level distributed caching extension."""

import pytest

from repro.errors import CacheError, ReproError, TitleUnavailableError
from repro.extensions.strip_caching import (
    StripCachingEvaluator,
    StripStore,
    strip_key,
)
from repro.network.grnet import build_grnet_topology
from repro.storage.video import VideoTitle

NODES = ["U1", "U2", "U3", "U4", "U5", "U6"]


def make_catalog(count=4, size_mb=100.0):
    return [VideoTitle(f"t{i}", size_mb=size_mb, duration_s=600.0) for i in range(count)]


def make_evaluator(granularity="strip", cache_mb=150.0, cluster_mb=25.0, count=4):
    catalog = make_catalog(count)
    origins = {v.title_id: NODES[i % len(NODES)] for i, v in enumerate(catalog)}
    return StripCachingEvaluator(
        build_grnet_topology(),
        catalog,
        origins,
        cluster_mb=cluster_mb,
        cache_capacity_mb=cache_mb,
        granularity=granularity,
    )


class TestStripKey:
    def test_format_and_ordering(self):
        assert strip_key("movie", 3) == "movie#00003"
        assert strip_key("movie", 2) < strip_key("movie", 10)


class TestStripStore:
    def test_store_until_full_then_replacement(self):
        store = StripStore(capacity_mb=50.0)
        assert store.on_request("a#0", 25.0)
        assert store.on_request("a#1", 25.0)
        assert store.free_mb == pytest.approx(0.0)
        # b's first point (1) immediately out-scores the 0-point earliest
        # resident a#0, which is evicted to make room.
        assert store.on_request("b#0", 25.0)
        assert store.has("b#0")
        assert not store.has("a#0")
        assert store.has("a#1")

    def test_pointed_residents_resist_replacement(self):
        store = StripStore(capacity_mb=50.0)
        store.on_request("a#0", 25.0)
        store.on_request("a#1", 25.0)
        store.on_request("a#0", 25.0)  # a#0: 1 point
        store.on_request("a#1", 25.0)  # a#1: 1 point
        assert not store.on_request("b#0", 25.0)  # 1 point, not > 1
        assert store.has("a#0") and store.has("a#1")

    def test_hit_gives_point(self):
        store = StripStore(50.0)
        store.on_request("a#0", 25.0)
        store.on_request("a#0", 25.0)
        assert store.tracker.points_of("a#0") == 1

    def test_pinned_strips_never_evicted_nor_counted(self):
        store = StripStore(25.0)
        store.pin("origin#0", 100.0)
        assert store.used_mb == 0.0  # pinned copies live outside the budget
        store.on_request("a#0", 25.0)
        for _ in range(5):
            store.on_request("b#0", 25.0)
        assert store.has("origin#0")

    def test_eviction_drains_tail_first(self):
        # All strips of "a" tie on points; first-seen order means the
        # earliest strip is evicted first... which for equal points is
        # a#0.  The *surviving* strips of a cooling title are therefore
        # its most recently admitted ones; with on-path request order the
        # title refills front-first, so steady state holds prefixes.
        store = StripStore(75.0)
        for i in range(3):
            store.on_request(f"a#{i}", 25.0)
        for _ in range(2):
            for i in range(3):
                store.on_request(f"b#{i}", 25.0)
        assert sum(store.has(f"b#{i}") for i in range(3)) == 3

    def test_single_eviction_mode(self):
        store = StripStore(50.0, evict_until_fits=False)
        store.on_request("a#0", 25.0)
        store.on_request("a#1", 25.0)
        # First try: evicts one 25 MB victim, still unfit, gives up
        # (Figure 2 semantics).
        assert not store.on_request("big#0", 50.0)
        assert store.used_mb == pytest.approx(25.0)
        # Second try out-scores the survivor too and succeeds.
        assert store.on_request("big#0", 50.0)
        assert store.has("big#0")

    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            StripStore(-1.0)


class TestEvaluator:
    def test_invalid_granularity_rejected(self):
        with pytest.raises(ReproError):
            make_evaluator(granularity="bytes")

    def test_unknown_title_rejected(self):
        evaluator = make_evaluator()
        with pytest.raises(TitleUnavailableError):
            evaluator.request("U2", "ghost")

    def test_origin_for_unknown_title_rejected(self):
        catalog = make_catalog(2)
        origins = {"t0": "U1", "ghost": "U2"}
        with pytest.raises(TitleUnavailableError):
            StripCachingEvaluator(
                build_grnet_topology(), catalog, origins, 25.0, 100.0
            )

    def test_first_request_fetches_everything_remotely(self):
        evaluator = make_evaluator()
        # t1's origin is U2; ask from U1 (1 hop away).
        cost = evaluator.request("U1", "t1")
        assert cost == pytest.approx(100.0 * 1)
        assert evaluator.report.local_mb == 0.0

    def test_second_request_is_fully_local(self):
        evaluator = make_evaluator()
        evaluator.request("U1", "t1")
        cost = evaluator.request("U1", "t1")
        assert cost == 0.0
        assert evaluator.report.local_mb == pytest.approx(100.0)
        assert evaluator.report.byte_hit_ratio == pytest.approx(0.5)

    def test_request_at_origin_is_local(self):
        evaluator = make_evaluator()
        cost = evaluator.request("U1", "t0")  # t0's origin is U1
        assert cost == 0.0
        assert evaluator.report.byte_hit_ratio == pytest.approx(1.0)

    def test_cached_copies_become_closer_sources(self):
        evaluator = make_evaluator(cache_mb=400.0)
        # t3's origin is U4.  U2 fetches it (2 hops via U3 or U1)...
        first_cost = evaluator.request("U2", "t3")
        assert first_cost == pytest.approx(100.0 * 2)
        # ...then U3 finds the whole title 1 hop away at U2 or U4.
        next_cost = evaluator.request("U3", "t3")
        assert next_cost == pytest.approx(100.0 * 1)

    def test_partial_caching_emerges_under_pressure(self):
        # Budget for 6 strips; two 4-strip titles compete at one node.
        evaluator = make_evaluator(cache_mb=150.0)
        evaluator.request("U6", "t1")
        evaluator.request("U6", "t2")
        held_t1 = evaluator.resident_strip_count("U6", "t1")
        held_t2 = evaluator.resident_strip_count("U6", "t2")
        assert held_t1 + held_t2 == 6  # budget full, no stranded space
        assert 0 < held_t1 < 4 or 0 < held_t2 < 4  # someone holds a partial

    def test_replay_returns_report(self):
        evaluator = make_evaluator()
        report = evaluator.replay([("U1", "t1"), ("U1", "t1"), ("U5", "t0")])
        assert report.request_count == 3
        assert report.total_mb == pytest.approx(300.0)


class TestGranularityComparison:
    def test_title_mode_skips_a_title_bigger_than_an_empty_cache(self):
        evaluator = make_evaluator("title", cache_mb=50.0)
        evaluator.request("U1", "t1")  # 100 MB, cached at U2 only
        assert evaluator.resident_strip_count("U1", "t1") == 0
        assert evaluator.stores["U1"].used_mb == 0.0
        assert evaluator.report.strip_fetches == 4

    def test_title_mode_is_all_or_nothing(self):
        evaluator = make_evaluator(granularity="title", cache_mb=150.0)
        evaluator.request("U6", "t1")
        evaluator.request("U6", "t2")
        for title in ("t1", "t2"):
            held = evaluator.resident_strip_count("U6", title)
            assert held in (0, 4), (title, held)

    def test_strip_mode_beats_title_mode_at_awkward_budgets(self):
        """The fractional-knapsack win: at a budget that strands capacity
        under whole-title caching, strip caching achieves a strictly
        higher byte hit ratio on the same workload."""
        events = []
        for _ in range(6):
            events.extend([("U6", "t1"), ("U6", "t2"), ("U6", "t3")])
        reports = {}
        for granularity in ("strip", "title"):
            evaluator = make_evaluator(granularity=granularity, cache_mb=150.0)
            reports[granularity] = evaluator.replay(list(events))
        assert (
            reports["strip"].byte_hit_ratio > reports["title"].byte_hit_ratio
        )
        assert (
            reports["strip"].megabyte_hops < reports["title"].megabyte_hops
        )

    def test_generous_budget_converges_both_modes(self):
        events = [("U6", "t1")] * 4
        hits = {}
        for granularity in ("strip", "title"):
            evaluator = make_evaluator(granularity=granularity, cache_mb=1_000.0)
            hits[granularity] = evaluator.replay(list(events)).byte_hit_ratio
        assert hits["strip"] == pytest.approx(hits["title"])


class TestFullTreeConsumer:
    def test_requests_route_over_complete_trees(self, monkeypatch):
        """Holders are looked up in the tree *after* it is built, so the
        evaluator must never be handed a goal-directed prefix."""
        from repro.network.compiled import TopologySnapshot

        trees = []
        real = TopologySnapshot.dijkstra

        def recording(*args, **kwargs):
            trees.append(real(*args, **kwargs))
            return trees[-1]

        monkeypatch.setattr(TopologySnapshot, "dijkstra", recording)
        for granularity in ("strip", "title"):
            evaluator = make_evaluator(granularity=granularity)
            assert evaluator.request("U5", "t1") > 0.0  # origin U2, hops away
        assert len(trees) == 2
        for tree in trees:
            assert tree.complete and tree.radius == float("inf")
            assert set(tree.distances) == set(NODES)
