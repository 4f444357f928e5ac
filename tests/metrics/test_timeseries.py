"""Unit tests for the time series."""

import pytest

from repro.errors import ReproError
from repro.metrics.timeseries import TimeSeries


class TestCapacity:
    def test_unbounded_by_default(self):
        series = TimeSeries()
        for t in range(100):
            series.record(float(t), 1.0)
        assert len(series) == 100
        assert series.samples()[0] == (0.0, 1.0)


class TestRecording:
    def test_append_and_length(self):
        series = TimeSeries("util")
        series.record(0.0, 0.5)
        series.record(10.0, 0.7)
        assert len(series) == 2
        assert series.samples() == [(0.0, 0.5), (10.0, 0.7)]

    def test_same_time_allowed(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        series.record(5.0, 2.0)
        assert len(series) == 2

    def test_time_regression_rejected(self):
        series = TimeSeries()
        series.record(10.0, 1.0)
        with pytest.raises(ReproError):
            series.record(5.0, 2.0)


class TestTimeAverage:
    def test_piecewise_constant_integral(self):
        series = TimeSeries()
        series.record(0.0, 1.0)  # 1.0 for 10 s
        series.record(10.0, 3.0)  # 3.0 for 10 s
        assert series.time_average(until=20.0) == pytest.approx(2.0)

    def test_default_horizon_is_last_sample(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        series.record(10.0, 3.0)
        # Integral over [0, 10): only the first segment counts.
        assert series.time_average() == pytest.approx(1.0)

    def test_single_sample(self):
        series = TimeSeries()
        series.record(5.0, 4.2)
        assert series.time_average() == 4.2

    def test_unequal_segments(self):
        series = TimeSeries()
        series.record(0.0, 0.0)
        series.record(30.0, 1.0)
        assert series.time_average(until=40.0) == pytest.approx(0.25)

    def test_horizon_before_first_rejected(self):
        series = TimeSeries()
        series.record(10.0, 1.0)
        with pytest.raises(ReproError):
            series.time_average(until=5.0)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            TimeSeries().time_average()


class TestMaximum:
    def test_maximum(self):
        series = TimeSeries()
        for t, v in [(0.0, 1.0), (1.0, 5.0), (2.0, 3.0)]:
            series.record(t, v)
        assert series.maximum() == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            TimeSeries().maximum()
