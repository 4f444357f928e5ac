"""Unit tests for PeriodicTask."""

import pytest

from repro.errors import SchedulingError
from repro.sim.timers import PeriodicTask


class TestPeriodicTask:
    def test_fires_every_period(self, sim):
        times = []
        task = PeriodicTask(sim, 10.0, lambda: times.append(sim.now))
        task.start()
        sim.run(until=35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_start_delay_offsets_first_firing(self, sim):
        times = []
        task = PeriodicTask(sim, 10.0, lambda: times.append(sim.now))
        task.start(start_delay=0.0)
        sim.run(until=25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_stop_halts_firings(self, sim):
        times = []
        task = PeriodicTask(sim, 5.0, lambda: times.append(sim.now))
        task.start()
        sim.run(until=12.0)
        task.stop()
        sim.run(until=50.0)
        assert times == [5.0, 10.0]
        assert not task.running

    def test_stop_from_inside_callback(self, sim):
        times = []

        def callback():
            times.append(sim.now)
            if len(times) == 2:
                task.stop()

        task = PeriodicTask(sim, 5.0, callback)
        task.start()
        sim.run(until=100.0)
        assert times == [5.0, 10.0]

    def test_fire_count(self, sim):
        fired = []
        task = PeriodicTask(sim, 1.0, lambda: fired.append(sim.now))
        task.start()
        sim.run(until=7.5)
        assert len(fired) == 7

    def test_double_start_is_noop(self, sim):
        times = []
        task = PeriodicTask(sim, 10.0, lambda: times.append(sim.now))
        task.start()
        task.start()
        sim.run(until=15.0)
        assert times == [10.0]

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(SchedulingError):
            PeriodicTask(sim, 0.0, lambda: None)
        with pytest.raises(SchedulingError):
            PeriodicTask(sim, -5.0, lambda: None)

    def test_restart_after_stop(self, sim):
        times = []
        task = PeriodicTask(sim, 5.0, lambda: times.append(sim.now))
        task.start()
        sim.run(until=6.0)
        task.stop()
        sim.run(until=20.0)
        task.start()
        sim.run(until=26.0)
        assert times == [5.0, 25.0]

    def test_a_refused_start_leaves_the_task_stopped(self, sim):
        times = []
        task = PeriodicTask(sim, 5.0, lambda: times.append(sim.now))
        with pytest.raises(SchedulingError):
            task.start(start_delay=-1.0)
        assert not task.running and sim.pending_count == 0
        task.start(0.0)
        sim.run(until=6.0)
        assert task.running and times == [0.0, 5.0]
