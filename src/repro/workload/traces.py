"""Background-traffic shaping.

:class:`Table2Replayer` drives a topology's background traffic through the
paper's Table 2 day (piecewise-linear between the 8am/10am/4pm/6pm samples),
which is what makes "the optimal server changes during downloading" actually
happen in the switching experiments.  :class:`DiurnalTrafficShaper` is the
generic synthetic equivalent for non-GRNET topologies.
"""

from __future__ import annotations

import math

from repro.errors import WorkloadError
from repro.network import grnet
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTask


class Table2Replayer:
    """Applies the paper's Table 2 traffic to GRNET as simulated time passes.

    Args:
        sim: The simulation engine (its clock is read as seconds since
            midnight).
        topology: A topology containing the GRNET link names.
        update_period_s: How often background levels are refreshed.
    """

    def __init__(self, sim: Simulator, topology: Topology, update_period_s: float = 60.0):
        self._sim = sim
        self._topology = topology
        self._task = PeriodicTask(sim, update_period_s, self._apply, name="table2-replay")

    def start(self) -> None:
        """Apply the current instant's traffic and begin periodic updates."""
        self._apply()
        self._task.start()

    def _apply(self) -> None:
        for name, mbps in grnet.interpolated_traffic(self._sim.now).items():
            self._topology.link_named(name).set_background_mbps(mbps)


class DiurnalTrafficShaper:
    """Synthetic day/night background traffic for arbitrary topologies.

    Each link's background level follows

        base + amplitude * (1 + sin(2*pi*(t - phase)/day)) / 2

    scaled by the link's capacity, so big links carry proportionally more
    background, like the 18 Mb GRNET trunks do in Table 2.

    Args:
        sim: Simulation engine.
        topology: The network to shape.
        base_fraction: Off-peak utilisation fraction of capacity.
        peak_fraction: On-peak utilisation fraction of capacity.
        day_s: Period of the cycle (86400 = one day).
        phase_s: Time of the minimum (4am default).
        update_period_s: Refresh cadence.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        base_fraction: float = 0.05,
        peak_fraction: float = 0.7,
        day_s: float = 86_400.0,
        phase_s: float = 4 * 3600.0,
        update_period_s: float = 60.0,
    ):
        if not (0.0 <= base_fraction <= peak_fraction <= 1.0):
            raise WorkloadError(
                f"need 0 <= base ({base_fraction}) <= peak ({peak_fraction}) <= 1"
            )
        if not (day_s > 0.0):
            raise WorkloadError(f"day length must be positive, got {day_s!r}")
        self._sim = sim
        self._topology = topology
        self._base = base_fraction
        self._amplitude = peak_fraction - base_fraction
        self._day = day_s
        self._phase = phase_s
        self._task = PeriodicTask(sim, update_period_s, self._apply, name="diurnal")

    def utilization_at(self, t: float) -> float:
        """The deterministic utilisation fraction at time ``t``."""
        wave = (1.0 - math.cos(2.0 * math.pi * (t - self._phase) / self._day)) / 2.0
        return self._base + self._amplitude * wave

    def start(self) -> None:
        """Apply current levels and begin periodic updates."""
        self._apply()
        self._task.start()

    def stop(self) -> None:
        """Stop refreshing background traffic."""
        self._task.stop()

    def _apply(self) -> None:
        fraction = self.utilization_at(self._sim.now)
        for link in self._topology.links():
            link.set_background_mbps(fraction * link.capacity_mbps)
