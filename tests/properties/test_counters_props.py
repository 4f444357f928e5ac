"""Property-based tests: SNMP counter wrap correctness."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snmp.counters import COUNTER32_MODULUS, OctetCounter, counter_delta

octet_batches = st.lists(
    st.integers(min_value=0, max_value=COUNTER32_MODULUS // 2 - 1),
    min_size=1,
    max_size=30,
)


@given(octet_batches)
@settings(max_examples=100, deadline=None)
def test_delta_recovers_traffic_across_wraps(batches):
    """As long as each inter-poll batch stays below 2**31 (one wrap max),
    counter_delta recovers the exact octet count."""
    counter = OctetCounter()
    previous = counter.value
    for batch in batches:
        counter.add_octets(batch)
        assert counter_delta(previous, counter.value) == batch
        previous = counter.value


@given(st.integers(min_value=0, max_value=COUNTER32_MODULUS - 1), octet_batches)
@settings(max_examples=100, deadline=None)
def test_total_traffic_reconstructed_from_polls(start, batches):
    counter = OctetCounter(start)
    total = 0
    previous = counter.value
    for batch in batches:
        counter.add_octets(batch)
        total += counter_delta(previous, counter.value)
        previous = counter.value
    assert total == sum(batches)


@given(st.integers(min_value=0, max_value=2**40))
@settings(max_examples=100, deadline=None)
def test_value_always_in_counter32_range(octets):
    counter = OctetCounter()
    counter.add_octets(octets)
    assert counter.value == octets % COUNTER32_MODULUS


@given(
    # Cap one batch below a single Counter32 wrap (2**32 octets = ~34360
    # Mbit) so counter_delta's one-wrap assumption holds, as it does for
    # any realistic poll interval on the paper's 2-18 Mbps links.
    st.floats(min_value=0.0, max_value=30_000.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_megabit_conversion_roundtrip(megabits):
    counter = OctetCounter()
    counter.add_octets(0)
    before = counter.value
    counter.add_megabits(megabits)
    octets = counter_delta(before, counter.value)
    # 1 Mbit = 125000 octets, rounded to the nearest octet.
    assert abs(octets - megabits * 125_000) <= 0.5 + 1e-9
