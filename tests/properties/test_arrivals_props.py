"""Property-based tests: arrival-process statistics."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.arrivals import PoissonArrivals

rates = st.floats(min_value=0.001, max_value=1.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**31)
horizons = st.floats(min_value=10.0, max_value=5_000.0, allow_nan=False)


@given(rates, seeds, horizons)
@settings(max_examples=100, deadline=None)
def test_poisson_times_strictly_inside_window(rate, seed, horizon):
    arrivals = PoissonArrivals(rate, rng=random.Random(seed))
    times = arrivals.times_until(horizon)
    assert all(0.0 < t <= horizon for t in times)
    assert times == sorted(times)


@given(rates, seeds)
@settings(max_examples=50, deadline=None)
def test_poisson_mean_count_tracks_rate(rate, seed):
    horizon = 2_000.0 / rate  # expect ~2000 arrivals: tight relative CI
    arrivals = PoissonArrivals(rate, rng=random.Random(seed))
    count = len(arrivals.times_until(horizon))
    # 2000 +- 6 sigma (~268) always holds for a Poisson process.
    assert abs(count - 2_000) < 270


@given(rates, seeds, st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_poisson_start_offset_shifts_window(rate, seed, start):
    arrivals = PoissonArrivals(rate, rng=random.Random(seed))
    times = arrivals.times_until(start + 500.0, start=start)
    assert all(start < t <= start + 500.0 for t in times)
