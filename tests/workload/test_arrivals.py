"""Unit tests for arrival processes."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workload.arrivals import PoissonArrivals


class TestPoissonArrivals:
    def test_times_sorted_and_within_horizon(self):
        arrivals = PoissonArrivals(0.1, rng=random.Random(3))
        times = arrivals.times_until(1000.0)
        assert times == sorted(times)
        assert all(0.0 < t <= 1000.0 for t in times)

    def test_mean_rate_approximated(self):
        arrivals = PoissonArrivals(0.05, rng=random.Random(9))
        times = arrivals.times_until(100_000.0)
        assert len(times) == pytest.approx(5000, rel=0.1)

    def test_deterministic_under_seed(self):
        a = PoissonArrivals(0.2, rng=random.Random(1)).times_until(500.0)
        b = PoissonArrivals(0.2, rng=random.Random(1)).times_until(500.0)
        assert a == b

    def test_start_offsets_window(self):
        arrivals = PoissonArrivals(0.5, rng=random.Random(2))
        times = arrivals.times_until(200.0, start=100.0)
        assert all(100.0 < t <= 200.0 for t in times)

    def test_invalid_rate_rejected(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(0.0)

    def test_horizon_before_start_rejected(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(1.0).times_until(5.0, start=10.0)
