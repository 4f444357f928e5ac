"""Unit tests for summary statistics."""

import pytest

from repro.errors import ReproError
from repro.metrics.stats import mean, percentile


class TestMean:
    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert mean([7.0]) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            mean([])


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0

    def test_extremes(self):
        data = [3.0, 1.0, 2.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 3.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25.0) == pytest.approx(2.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ReproError):
            percentile([1.0], 101.0)
        with pytest.raises(ReproError):
            percentile([1.0], -1.0)

    def test_single_value(self):
        assert percentile([4.0], 95.0) == 4.0
