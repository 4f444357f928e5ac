"""SNMP-style octet counters.

Real routers expose traffic as monotonically increasing 32-bit octet
counters (ifInOctets / ifOutOctets) that wrap at 2**32; pollers recover the
rate from the delta between two polls, correcting for at most one wrap.
This module reproduces that mechanism so the collector math is exercised the
way a real deployment would exercise it.
"""

from __future__ import annotations

from repro.errors import SnmpError

#: Counter32 wraps at 2**32 per RFC 2578.
COUNTER32_MODULUS = 2**32


class OctetCounter:
    """A wrapping Counter32 of transferred octets."""

    __slots__ = ("_value",)

    def __init__(self, initial: int = 0):
        if initial < 0:
            raise SnmpError(f"counter cannot start negative, got {initial}")
        self._value = initial % COUNTER32_MODULUS

    @property
    def value(self) -> int:
        """Current 32-bit counter value, in [0, 2**32)."""
        return self._value

    def add_octets(self, octets: int) -> int:
        """Advance the counter by a non-negative octet count.

        Returns:
            The new 32-bit value.

        Raises:
            SnmpError: If ``octets`` is negative.
        """
        if octets < 0:
            raise SnmpError(f"cannot add negative octets ({octets})")
        self._value = (self._value + octets) % COUNTER32_MODULUS
        return self._value

    def add_megabits(self, megabits: float) -> int:
        """Advance by traffic expressed in megabits (1 Mbit = 125000 octets)."""
        return self.add_octets(int(round(megabits * 1e6 / 8.0)))


def counter_delta(previous: int, current: int) -> int:
    """Octets transferred between two polls of a Counter32.

    Assumes at most one wrap between polls, the standard SNMP poller
    assumption (poll periods of 1-2 minutes make multiple wraps impossible
    on the paper's 2-18 Mbps links).

    Raises:
        SnmpError: If either value is outside [0, 2**32).
    """
    for value in (previous, current):
        if not (0 <= value < COUNTER32_MODULUS):
            raise SnmpError(f"counter value {value} outside Counter32 range")
    if current >= previous:
        return current - previous
    return current + COUNTER32_MODULUS - previous


def delta_to_mbps(octets: int, interval_s: float) -> float:
    """Convert an octet delta over an interval to megabits per second.

    Raises:
        SnmpError: If the interval is not positive.
    """
    if not (interval_s > 0.0):
        raise SnmpError(f"poll interval must be positive, got {interval_s!r}")
    return octets * 8.0 / 1e6 / interval_s
