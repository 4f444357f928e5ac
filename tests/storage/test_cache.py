"""Unit tests for the popularity tracker."""

import pytest

from repro.errors import CacheError
from repro.storage.cache import PopularityTracker


class TestPoints:
    def test_points_start_at_zero(self):
        tracker = PopularityTracker()
        assert tracker.points_of("v") == 0

    def test_give_point_accumulates(self):
        tracker = PopularityTracker()
        assert tracker.give_point("v") == 1
        assert tracker.give_point("v") == 2
        assert tracker.points_of("v") == 2

    def test_track_registers_without_points(self):
        tracker = PopularityTracker()
        tracker.track("v")
        assert tracker.points_of("v") == 0
        assert tracker.ranking() == [("v", 0)]

    def test_empty_title_rejected(self):
        with pytest.raises(CacheError):
            PopularityTracker().give_point("")


class TestLeastPopular:
    def test_picks_fewest_points(self):
        tracker = PopularityTracker()
        tracker.give_point("a")
        tracker.give_point("a")
        tracker.give_point("b")
        assert tracker.least_popular(["a", "b"]) == "b"

    def test_tie_broken_by_first_seen(self):
        tracker = PopularityTracker()
        tracker.track("older")
        tracker.track("newer")
        assert tracker.least_popular(["newer", "older"]) == "older"

    def test_untracked_candidates_count_as_zero(self):
        tracker = PopularityTracker()
        tracker.give_point("a")
        assert tracker.least_popular(["a", "ghost"]) == "ghost"

    def test_empty_candidates_give_none(self):
        assert PopularityTracker().least_popular([]) is None

    def test_restricted_to_candidate_set(self):
        tracker = PopularityTracker()
        tracker.track("cold")  # 0 points but not a candidate
        tracker.give_point("warm")
        tracker.give_point("hot")
        tracker.give_point("hot")
        assert tracker.least_popular(["warm", "hot"]) == "warm"


class TestRanking:
    def test_ranking_most_popular_first(self):
        tracker = PopularityTracker()
        for _ in range(3):
            tracker.give_point("hot")
        tracker.give_point("warm")
        tracker.track("cold")
        assert tracker.ranking() == [("hot", 3), ("warm", 1), ("cold", 0)]

    def test_ranking_tie_keeps_first_seen_order(self):
        tracker = PopularityTracker()
        tracker.give_point("first")
        tracker.give_point("second")
        assert tracker.ranking() == [("first", 1), ("second", 1)]
