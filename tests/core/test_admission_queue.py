"""Unit tests for the load-leveling admission queue.

The queue is a pure function of its arrival sequence: every outcome
(immediate / delayed / shed, assigned tick, cohort membership) must be
derivable by hand from ``capacity``, ``rate_per_s`` and ``tick_s``, and
identical on every replay.
"""

import pytest

from repro.core.admission_queue import AdmissionQueue
from repro.core.service import ServiceConfig, VoDService
from repro.errors import ReproError
from repro.network.grnet import build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle


class TestValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ReproError, match="capacity"):
            AdmissionQueue(capacity=0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ReproError, match="rate"):
            AdmissionQueue(capacity=1, rate_per_s=0.0)
        with pytest.raises(ReproError, match="rate"):
            AdmissionQueue(capacity=1, rate_per_s=-1.0)

    def test_nonpositive_tick_rejected(self):
        with pytest.raises(ReproError, match="tick"):
            AdmissionQueue(capacity=1, tick_s=0.0)

    def test_quota_is_at_least_one(self):
        queue = AdmissionQueue(capacity=1, rate_per_s=0.001, tick_s=1.0)
        assert queue.quota_per_tick == 1

    def test_quota_rounds_down_fractional_rates(self):
        assert AdmissionQueue(1, rate_per_s=2.5, tick_s=1.0).quota_per_tick == 2
        assert AdmissionQueue(1, rate_per_s=0.5, tick_s=10.0).quota_per_tick == 5


class TestPacing:
    def test_within_quota_is_immediate(self):
        queue = AdmissionQueue(capacity=10, rate_per_s=2.0, tick_s=1.0)
        first = queue.offer(0.25, key="a")
        second = queue.offer(0.25, key="a")
        for slot in (first, second):
            assert not slot.shed
            assert slot.wait_s == 0.0
            assert slot.admit_at == 0.25
        assert queue.stats.immediate == 2
        assert queue.depth == 0  # zero-wait admissions never occupy the queue

    def test_beyond_quota_lands_on_later_ticks_in_arrival_order(self):
        queue = AdmissionQueue(capacity=10, rate_per_s=2.0, tick_s=1.0)
        queue.offer(0.25, key="a")
        queue.offer(0.25, key="a")
        third = queue.offer(0.25, key="a")
        fourth = queue.offer(0.25, key="a")
        fifth = queue.offer(0.25, key="a")
        assert (third.admit_at, third.wait_s) == (1.0, 0.75)
        assert (fourth.admit_at, fourth.wait_s) == (1.0, 0.75)
        assert (fifth.admit_at, fifth.wait_s) == (2.0, 1.75)
        assert queue.depth == 3
        assert queue.stats.delayed == 3
        assert queue.stats.max_depth == 3
        assert queue.stats.max_wait_s == 1.75

    def test_ticks_are_wall_aligned_not_arrival_aligned(self):
        queue = AdmissionQueue(capacity=10, rate_per_s=1.0, tick_s=1.0)
        queue.offer(3.7, key="a")
        delayed = queue.offer(3.7, key="a")
        assert delayed.admit_at == 4.0  # the next tick boundary, not now+1
        assert delayed.wait_s == pytest.approx(0.3)

    def test_idle_gap_resets_the_drain_cursor(self):
        queue = AdmissionQueue(capacity=10, rate_per_s=1.0, tick_s=1.0)
        queue.offer(0.0, key="a")
        queue.offer(0.0, key="a")  # assigned to tick 1
        late = queue.offer(50.0, key="a")  # quota of tick 50 is untouched
        assert not late.shed and late.wait_s == 0.0

    def test_shed_once_capacity_waiting(self):
        queue = AdmissionQueue(capacity=1, rate_per_s=1.0 / 60.0, tick_s=60.0)
        assert queue.offer(0.0, key="a").wait_s == 0.0
        assert queue.offer(0.0, key="a").wait_s == 60.0
        slot = queue.offer(0.0, key="a")
        assert slot.shed
        assert slot.depth == 1
        assert queue.stats.shed == 1
        assert queue.stats.shed_rate == pytest.approx(1.0 / 3.0)

    def test_release_frees_a_waiting_slot(self):
        queue = AdmissionQueue(capacity=1, rate_per_s=1.0 / 60.0, tick_s=60.0)
        queue.offer(0.0, key="a")
        queue.offer(0.0, key="a")
        assert queue.offer(0.0, key="a").shed
        queue.release()
        assert queue.depth == 0
        assert not queue.offer(61.0, key="a").shed
        assert queue.stats.released == 1

    def test_identical_arrivals_replay_identically(self):
        arrivals = [(0.0, "a"), (0.0, "b"), (0.5, "a"), (2.0, "c"), (2.0, "c")]

        def run():
            queue = AdmissionQueue(capacity=2, rate_per_s=1.0, tick_s=1.0)
            slots = [queue.offer(now, key) for now, key in arrivals]
            return slots, queue.stats, queue.depth

        assert run() == run()


class TestCohorts:
    def test_same_tick_admissions_form_a_batch_with_coalescing(self):
        queue = AdmissionQueue(capacity=10, rate_per_s=3.0, tick_s=1.0)
        queue.offer(0.0, key="a")
        queue.offer(0.0, key="a")
        queue.offer(0.0, key="b")
        # The fourth offer rolls the cursor to tick 1: a second cohort.
        queue.offer(0.0, key="b")
        stats = queue.stats
        assert stats.batches == 2
        assert stats.max_batch == 3
        assert stats.coalesced == 1  # the second "a" rides the first's decision

    def test_the_inflight_cohort_counts_as_it_fills(self):
        queue = AdmissionQueue(capacity=10, rate_per_s=10.0, tick_s=1.0)
        queue.offer(0.0, key="a")
        queue.offer(0.0, key="a")
        assert queue.stats.batches == 1  # the first tick, still filling
        assert queue.stats.max_batch == 2
        assert queue.stats.coalesced == 1

    def test_stats_carry_counters_beside_the_live_depth(self):
        queue = AdmissionQueue(capacity=2, rate_per_s=1.0 / 60.0, tick_s=60.0)
        queue.offer(0.0, key="a")
        queue.offer(0.0, key="a")
        stats = queue.stats
        assert stats.offered == 2
        assert stats.immediate == 1
        assert stats.delayed == 1
        assert queue.depth == 1
        assert stats.mean_wait_s == 60.0

    def test_empty_queue_rates_are_zero(self):
        queue = AdmissionQueue(capacity=1)
        assert queue.stats.mean_wait_s == 0.0
        assert queue.stats.shed_rate == 0.0


class TestServiceRun:
    def test_after_a_run_batches_are_the_drain_ticks_used(self):
        service = VoDService(
            Simulator(),
            build_grnet_topology(),
            ServiceConfig(
                admission_queue_capacity=20, admission_rate_per_s=2.0, admission_tick_s=1.0
            ),
        )
        service.seed_title("U4", VideoTitle("movie", size_mb=60.0, duration_s=600.0))
        service.start()
        queue = service.admission_queue
        ticks = []
        offer = queue.offer

        def recording_offer(now, key):
            slot = offer(now, key)
            if not slot.shed:
                ticks.append(int(slot.admit_at / queue.tick_s))
            return slot

        queue.offer = recording_offer
        for index in range(7):
            service.request_by_home("U2", "movie", f"c{index}")
        service.sim.run(until=service.sim.now + 3_600.0)
        assert ticks == [0, 0, 1, 1, 2, 2, 3]  # two a tick; the last cohort has one
        stats = queue.stats
        assert stats.batches == len(set(ticks))
        assert (stats.max_batch, stats.coalesced) == (2, 3)
