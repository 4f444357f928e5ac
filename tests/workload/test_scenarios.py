"""Unit tests for packaged workload scenarios."""

import pytest

from repro.errors import WorkloadError
from repro.workload.scenarios import regional_scenario


def events_by_home(scenario):
    grouped = {}
    for event in scenario.events:
        grouped.setdefault(event.home_uid, []).append(event)
    return grouped


class TestRegionalScenario:
    def test_events_sorted_by_time(self):
        scenario = regional_scenario(["U1", "U2"], catalog_size=10, requests_per_node=20)
        times = [e.time_s for e in scenario.events]
        assert times == sorted(times)

    def test_events_reference_catalog_titles(self):
        scenario = regional_scenario(["U1", "U2"], catalog_size=10, requests_per_node=20)
        title_ids = {t.title_id for t in scenario.catalog}
        assert all(e.title_id in title_ids for e in scenario.events)

    def test_deterministic_under_seed(self):
        a = regional_scenario(["U1", "U2"], catalog_size=5, requests_per_node=10, seed=3)
        b = regional_scenario(["U1", "U2"], catalog_size=5, requests_per_node=10, seed=3)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = regional_scenario(["U1"], catalog_size=5, requests_per_node=30, seed=1)
        b = regional_scenario(["U1"], catalog_size=5, requests_per_node=30, seed=2)
        assert a.events != b.events

    def test_regional_rotation_shifts_popularity(self):
        scenario = regional_scenario(
        ["U1", "U2"],
            catalog_size=20,
            requests_per_node=300,
            regional_shift=10,
            zipf_exponent=1.2,
            seed=5,
        )
        by_home = events_by_home(scenario)

        def top_title(events):
            counts = {}
            for event in events:
                counts[event.title_id] = counts.get(event.title_id, 0) + 1
            return max(counts, key=counts.get)

        # Node 0's favourite is rank 1 of the global order; node 1's is
        # rotated 10 places away.
        assert top_title(by_home["U1"]) != top_title(by_home["U2"])

    def test_zero_shift_gives_same_tastes(self):
        scenario = regional_scenario(
            ["U1", "U2"],
            catalog_size=10,
            requests_per_node=500,
            regional_shift=0,
            zipf_exponent=1.5,
            seed=5,
        )
        by_home = events_by_home(scenario)
        favourites = set()
        for events in by_home.values():
            counts = {}
            for event in events:
                counts[event.title_id] = counts.get(event.title_id, 0) + 1
            favourites.add(max(counts, key=counts.get))
        assert favourites == {scenario.catalog[0].title_id}

    def test_client_ids_unique(self):
        scenario = regional_scenario(["U1", "U2"], catalog_size=5, requests_per_node=20)
        ids = [e.client_id for e in scenario.events]
        assert len(ids) == len(set(ids))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            regional_scenario([], catalog_size=5)
        with pytest.raises(WorkloadError):
            regional_scenario(["U1"], requests_per_node=0)
        with pytest.raises(WorkloadError):
            regional_scenario(["U1"], horizon_s=0.0)

    def test_prebuilt_catalog_reused(self):
        first = regional_scenario(["U1"], catalog_size=5, requests_per_node=5)
        second = regional_scenario(
            ["U1"], requests_per_node=5, catalog=first.catalog
        )
        assert second.catalog is first.catalog


class TestFlashCrowdScenario:
    def _title(self):
        from repro.storage.video import VideoTitle

        return VideoTitle("special", size_mb=300.0, duration_s=1800.0)

    def test_all_events_same_home_and_title(self):
        from repro.workload.scenarios import flash_crowd_scenario

        scenario = flash_crowd_scenario("U2", self._title(), viewer_count=20)
        assert len(scenario.events) == 20
        assert all(e.home_uid == "U2" for e in scenario.events)
        assert all(e.title_id == "special" for e in scenario.events)

    def test_arrivals_within_ramp_window(self):
        from repro.workload.scenarios import flash_crowd_scenario

        scenario = flash_crowd_scenario(
            "U2", self._title(), viewer_count=50, start_s=100.0, ramp_s=200.0
        )
        times = [e.time_s for e in scenario.events]
        assert times == sorted(times)
        assert all(100.0 <= t <= 300.0 for t in times)

    def test_deterministic_under_seed(self):
        from repro.workload.scenarios import flash_crowd_scenario

        a = flash_crowd_scenario("U2", self._title(), seed=3)
        b = flash_crowd_scenario("U2", self._title(), seed=3)
        assert a.events == b.events
        c = flash_crowd_scenario("U2", self._title(), seed=4)
        assert a.events != c.events

    def test_invalid_parameters_rejected(self):
        from repro.workload.scenarios import flash_crowd_scenario

        with pytest.raises(WorkloadError):
            flash_crowd_scenario("U2", self._title(), viewer_count=0)
        with pytest.raises(WorkloadError):
            flash_crowd_scenario("U2", self._title(), ramp_s=0.0)

    def test_client_ids_unique(self):
        from repro.workload.scenarios import flash_crowd_scenario

        scenario = flash_crowd_scenario("U2", self._title(), viewer_count=30)
        ids = [e.client_id for e in scenario.events]
        assert len(set(ids)) == 30
