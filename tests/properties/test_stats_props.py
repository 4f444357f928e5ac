"""Property-based tests: summary statistics against first principles."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.stats import mean, percentile
from repro.metrics.timeseries import TimeSeries

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=100,
)


@given(samples)
@settings(max_examples=100, deadline=None)
def test_mean_within_bounds(values):
    assert min(values) - 1e-6 <= mean(values) <= max(values) + 1e-6


@given(samples)
@settings(max_examples=100, deadline=None)
def test_percentile_monotone_in_q(values):
    previous = -math.inf
    for q in (0, 10, 25, 50, 75, 90, 100):
        current = percentile(values, q)
        assert current >= previous - 1e-9
        previous = current


@given(samples)
@settings(max_examples=100, deadline=None)
def test_percentile_extremes_are_min_max(values):
    assert percentile(values, 0.0) == min(values)
    assert percentile(values, 100.0) == max(values)


@given(samples, st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_mean_shift_invariance(values, shift):
    shifted = [v + shift for v in values]
    assert abs(mean(shifted) - (mean(values) + shift)) < 1e-6


@given(
    st.lists(
        st.tuples(
            # Times quantised to milliseconds: subnormal-width segments
            # (gaps of ~5e-324 s) make the area/width ratio round with up
            # to 2x relative error, which is a float artefact rather than
            # an integrator bug; simulated times are never subnormal.
            st.integers(min_value=0, max_value=10_000_000).map(lambda ms: ms / 1000.0),
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100, deadline=None)
def test_time_average_within_value_bounds(points):
    series = TimeSeries()
    for t, v in sorted(points, key=lambda p: p[0]):
        series.record(t, v)
    values = series.values()
    average = series.time_average()
    assert min(values) - 1e-9 <= average <= max(values) + 1e-9
