"""Unit tests for Counter32 semantics."""

import pytest

from repro.errors import SnmpError
from repro.snmp.counters import (
    COUNTER32_MODULUS,
    OctetCounter,
    counter_delta,
    delta_to_mbps,
)


class TestOctetCounter:
    def test_starts_at_zero(self):
        counter = OctetCounter()
        assert counter.value == 0

    def test_accumulates(self):
        counter = OctetCounter()
        counter.add_octets(100)
        counter.add_octets(50)
        assert counter.value == 150

    def test_wraps_at_2_32(self):
        counter = OctetCounter(COUNTER32_MODULUS - 10)
        counter.add_octets(15)
        assert counter.value == 5

    def test_initial_above_modulus_normalised(self):
        counter = OctetCounter(COUNTER32_MODULUS + 7)
        assert counter.value == 7

    def test_negative_add_rejected(self):
        with pytest.raises(SnmpError):
            OctetCounter().add_octets(-1)

    def test_negative_initial_rejected(self):
        with pytest.raises(SnmpError):
            OctetCounter(-5)

    def test_add_megabits(self):
        counter = OctetCounter()
        counter.add_megabits(8.0)  # 8 Mbit = 1 MB = 1_000_000 octets
        assert counter.value == 1_000_000

    def test_multiple_wraps_tracked(self):
        counter = OctetCounter()
        counter.add_octets(3 * COUNTER32_MODULUS + 9)
        assert counter.value == 9


class TestCounterDelta:
    def test_simple_delta(self):
        assert counter_delta(100, 150) == 50

    def test_zero_delta(self):
        assert counter_delta(42, 42) == 0

    def test_wrap_corrected(self):
        assert counter_delta(COUNTER32_MODULUS - 10, 5) == 15

    def test_roundtrip_with_counter(self):
        counter = OctetCounter(COUNTER32_MODULUS - 100)
        before = counter.value
        counter.add_octets(250)
        assert counter_delta(before, counter.value) == 250

    def test_out_of_range_rejected(self):
        with pytest.raises(SnmpError):
            counter_delta(-1, 5)
        with pytest.raises(SnmpError):
            counter_delta(0, COUNTER32_MODULUS)


class TestDeltaToMbps:
    def test_conversion(self):
        # 7.5 MB over 60 s = 1 Mbps.
        assert delta_to_mbps(7_500_000, 60.0) == pytest.approx(1.0)

    def test_zero_octets_is_zero_rate(self):
        assert delta_to_mbps(0, 60.0) == 0.0

    def test_non_positive_interval_rejected(self):
        with pytest.raises(SnmpError):
            delta_to_mbps(100, 0.0)
        with pytest.raises(SnmpError):
            delta_to_mbps(100, -5.0)
