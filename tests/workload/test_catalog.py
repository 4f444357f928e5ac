"""Unit tests for the catalog generator."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workload.catalog import CatalogGenerator


class TestCatalogGenerator:
    def test_generates_requested_count(self):
        titles = CatalogGenerator(rng=random.Random(1)).generate(25)
        assert len(titles) == 25
        assert len({t.title_id for t in titles}) == 25

    def test_ids_rank_ordered_and_padded(self):
        titles = CatalogGenerator(rng=random.Random(1)).generate(3, prefix="movie")
        assert [t.title_id for t in titles] == ["movie-001", "movie-002", "movie-003"]

    def test_sizes_within_range(self):
        generator = CatalogGenerator(
            rng=random.Random(2), min_size_mb=100.0, max_size_mb=200.0
        )
        assert all(100.0 <= t.size_mb <= 200.0 for t in generator.generate(50))

    def test_durations_within_range(self):
        generator = CatalogGenerator(
            rng=random.Random(2), min_duration_s=60.0, max_duration_s=120.0
        )
        assert all(60.0 <= t.duration_s <= 120.0 for t in generator.generate(50))

    def test_deterministic_under_seed(self):
        a = CatalogGenerator(rng=random.Random(5)).generate(10)
        b = CatalogGenerator(rng=random.Random(5)).generate(10)
        assert a == b

    def test_invalid_ranges_rejected(self):
        with pytest.raises(WorkloadError):
            CatalogGenerator(min_size_mb=200.0, max_size_mb=100.0)
        with pytest.raises(WorkloadError):
            CatalogGenerator(min_duration_s=0.0)

    def test_invalid_count_rejected(self):
        with pytest.raises(WorkloadError):
            CatalogGenerator().generate(0)
