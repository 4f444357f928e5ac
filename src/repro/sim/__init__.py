"""Discrete-event simulation engine.

This subpackage is the substrate on which the whole VoD service runs: a
deterministic event-heap simulator (:class:`~repro.sim.engine.Simulator`),
generator-based cooperative processes (:mod:`repro.sim.process`), periodic
tasks (:mod:`repro.sim.timers`) and reproducible named random-number streams
(:mod:`repro.sim.rng`).

The paper's service reacts to wall-clock periodic SNMP updates (every 1-2
minutes); under this engine those become periodic simulated-time tasks with
identical semantics, which is the substitution documented in DESIGN.md §2.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.events import Event
from repro.sim.process import Delay, Process
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTask

__all__ = [
    "Delay",
    "Event",
    "EventHandle",
    "PeriodicTask",
    "Process",
    "RngRegistry",
    "Simulator",
]
