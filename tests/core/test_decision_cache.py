"""The decision half of the VRA's epoch memo as
:class:`~repro.core.service.VoDService` wires it: the token that clears
it (its routing part pinned against ``routing_epoch()`` as promised in the
service source), the availability hooks that move the token, telemetry
parity on replays, and the snapshot sections.
"""

import gc
import weakref

import pytest

from repro.core.service import ServiceConfig, VoDService
from repro.database.records import LinkStats
from repro.errors import RoutingError
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.engine import Simulator
from repro.storage.video import VideoTitle

MOVIE = VideoTitle("movie", size_mb=600.0, duration_s=3_600.0)


def build_service(**config_kwargs) -> VoDService:
    service = VoDService(
        Simulator(), build_grnet_topology(), ServiceConfig(**config_kwargs)
    )
    service.seed_title("U4", MOVIE)
    service.seed_title("U5", MOVIE)
    service.start()
    return service


def report_traffic(service: VoDService, label: str = "8am") -> None:
    apply_traffic_sample(service.topology, label)
    admin = service.database.limited_access()
    for link in service.topology.links():
        admin.update_link_stats(
            link.name,
            LinkStats(
                used_mbps=link.used_mbps,
                utilization=link.utilization,
                timestamp=service.sim.now,
            ),
        )


class TestServiceWiring:
    def test_decision_cache_rides_on_the_routing_cache(self):
        service = build_service(compiled_routing=False)
        assert service.snapshot()["decision_cache"] is None  # reference: no memo
        first = service.decide("U2", "movie")
        assert first.chosen_uid in {"U4", "U5"}
        assert service.decide("U2", "movie") is not first

    def test_default_config_turns_the_memo_on(self):
        service = build_service()
        assert service.snapshot()["decision_cache"] == {
            "hits": 0, "misses": 0, "hit_rate": 0.0
        }
        assert service.vra.cache.decisions == {}
        assert service.admission_queue is None

    def test_replay_returns_the_cached_object_with_counter_parity(self):
        service = build_service()
        first = service.decide("U2", "movie")
        decisions_before = service.vra.decision_count
        second = service.decide("U2", "movie")
        assert second is first  # same-state replay, not a recompute
        assert service.vra.decision_count == decisions_before + 1
        stats = service.snapshot()["decision_cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    @pytest.mark.parametrize("use_reported_stats", [True, False])
    def test_freshness_token_pins_routing_epoch(self, use_reported_stats):
        """The memo token's routing part is ``routing_epoch()``'s
        counters, so it moves whenever the epoch does — the parity
        promised in the service source."""
        service = build_service(use_reported_stats=use_reported_stats)

        def observe():
            token, epoch = service.vra.cache.token_of(), service.routing_epoch()
            assert token[:2] == epoch[1:]
            return token, epoch

        token, epoch = observe()
        for mutate in (
            lambda: report_traffic(service),
            lambda: setattr(
                service.topology.link_named("Thessaloniki-Athens"),
                "online",
                False,
            ),
            lambda: service.topology.link_named(
                "Patra-Athens"
            ).set_background_mbps(3.0),
        ):
            mutate()
            new_token, new_epoch = observe()
            if new_epoch != epoch:
                assert new_token != token
            token, epoch = new_token, new_epoch

    def test_availability_churn_invalidates_the_replay(self):
        service = build_service()
        first = service.decide("U2", "movie")
        chosen = service.servers[first.chosen_uid]
        # Fill the chosen holder's last stream slots: its poll answer
        # flips, so the same lookup must re-decide, not replay.
        leases = [
            chosen.admission.admit() for _ in range(chosen.admission.max_streams)
        ]
        second = service.decide("U2", "movie")
        assert second is not first
        assert second.chosen_uid != first.chosen_uid
        for lease in leases:
            chosen.end_serving(lease)
        third = service.decide("U2", "movie")
        assert third.chosen_uid == first.chosen_uid

    def test_replay_forgets_everything_decided_under_an_older_token(self):
        """The token's counters only grow, so a replay entry of an older
        token can never hit again — and must not pin that epoch's table."""
        service = build_service()
        report_traffic(service)
        service.decide("U2", "movie")
        service.decide("U3", "movie")
        assert set(service.vra.cache.decisions) == {("U2", "movie"), ("U3", "movie")}
        old_table = weakref.ref(service.decide("U2", "movie").weights)
        assert old_table() is not None

        report_traffic(service, "4pm")  # the token (and every weight) moves
        fresh = service.decide("U2", "movie")
        assert set(service.vra.cache.decisions) == {("U2", "movie")}
        assert service.vra.cache.decisions["U2", "movie"] is fresh
        assert service.decide("U2", "movie") is fresh  # still replays
        gc.collect()
        assert old_table() is None

    def test_dma_title_and_disk_and_crash_churn_move_the_token(self):
        service = build_service()
        token = service.vra.cache.token_of()
        service.database.add_title_to_server("U1", "movie")
        assert service.vra.cache.token_of() != token
        token = service.vra.cache.token_of()
        service.servers["U4"].array.fail_disk(0)
        assert service.vra.cache.token_of() != token
        token = service.vra.cache.token_of()
        service.servers["U5"].online = False
        assert service.vra.cache.token_of() != token

    def test_errors_are_never_cached(self):
        service = build_service()
        for link in service.topology.links():
            link.online = False
        for _ in range(2):
            with pytest.raises(RoutingError):
                service.decide("U2", "movie")
        stats = service.snapshot()["decision_cache"]
        assert stats["hits"] == 0
        assert stats["misses"] == 2
        assert len(service.vra.cache.decisions) == 0

    def test_snapshot_reports_the_new_sections(self):
        plain = build_service(compiled_routing=False)
        assert plain.snapshot()["decision_cache"] is None
        assert plain.snapshot()["admission_queue"] is None
        tuned = build_service(
            admission_queue_capacity=8,
            admission_rate_per_s=2.0,
        )
        tuned.decide("U2", "movie")
        snapshot = tuned.snapshot()
        assert snapshot["decision_cache"]["misses"] == 1
        assert snapshot["admission_queue"]["offered"] == 0

    def test_queue_delay_and_shed_surface_in_session_records(self):
        service = build_service(
            admission_queue_capacity=2,
            admission_rate_per_s=1.0 / 60.0,
            admission_tick_s=60.0,
        )
        requests = [
            service.request_by_home("U2", "movie", f"c{i}")[0] for i in range(5)
        ]
        service.sim.run(until=8 * 3600.0)
        records = {r.request.client_id: r for r in service.sessions}
        assert records["c0"].admission_wait_s == 0.0
        assert records["c1"].admission_wait_s == 60.0
        assert records["c2"].admission_wait_s == 120.0
        for shed in ("c3", "c4"):
            assert requests[int(shed[1])].failure_reason.startswith(
                "admission-shed"
            )
            assert records[shed].completed_at is None
        assert service.admission_queue.stats.shed == 2
        assert service.admission_queue.stats.released == 2


class TestStalenessFlipMovesTheToken:
    """A stale-set flip writes nothing to the database, so only the
    ``touch_links`` call in ``_on_staleness_change`` tells the memo."""

    @staticmethod
    def scenario():
        """Decide, age the stats out under a collector blackout, decide,
        lift the blackout, decide: ``(decision, memo misses)`` each time."""
        topology = build_grnet_topology()
        apply_traffic_sample(topology, "8am")
        service = VoDService(
            Simulator(),
            topology,
            ServiceConfig(snmp_period_s=60.0, max_stats_age_s=150.0),
        )
        service.seed_title("U4", MOVIE)
        service.seed_title("U5", MOVIE)
        service.start()
        sim = service.sim
        sim.run(until=121.0)  # two rounds: fresh, non-zero reported stats
        observed = []

        def decide_twice():
            service.decide("U2", "movie")
            observed.append((service.decide("U2", "movie"), service.vra.decision_cache_stats.misses))

        decide_twice()
        service.statistics.blackout()
        sim.run(until=400.0)  # no round writes; the guard's check ages links out
        assert service.staleness_guard.degraded
        decide_twice()
        service.statistics.restore()
        sim.run(until=481.0)
        assert not service.staleness_guard.degraded
        decide_twice()
        return service, observed

    @staticmethod
    def check(service, observed):
        from repro.core.lvn import weight_table

        (fresh, m1), (stale, m2), (healed, m3) = observed
        assert (m1, m2, m3) == (1, 2, 3)  # one fresh VRA run per state
        assert [d.degraded for d in (fresh, stale, healed)] == [False, True, False]
        # The stale answer searched under inflated weights, not a replay
        # of the fresh table ...
        assert stale.weights != fresh.weights
        assert all(stale.weights[name] >= fresh.weights[name] for name in fresh.weights)
        # ... and the healed one under what the guard reads now.
        assert healed.weights == weight_table(
            service.topology, service._guarded_used, service.config.normalization_constant
        )

    def test_stale_flip_and_heal_each_force_a_fresh_decision(self):
        self.check(*self.scenario())

    def test_the_check_kills_the_touch_links_mutation(self, monkeypatch):
        from repro.database.store import ServiceDatabase

        monkeypatch.setattr(ServiceDatabase, "touch_links", lambda self, names: None)
        service, observed = self.scenario()
        with pytest.raises(AssertionError):
            self.check(service, observed)


class TestReplayPaysForTheTokenOnce:
    """Reader rule of DESIGN.md §5b.14: with observability off a replay
    calls nothing in ``repro.obs``; with it on every instrument reads as
    if the VRA had run."""

    def test_replays_touch_no_instrument_when_observability_is_off(self, monkeypatch):
        from repro.obs.registry import _NullCounter, _NullHistogram

        service = build_service()
        assert not service.obs.enabled

        def forbid(patch):
            def boom(*args, **kwargs):
                raise AssertionError("a replay reached repro.obs")

            patch.setattr(_NullCounter, "inc", boom)
            patch.setattr(_NullHistogram, "observe", boom)

        first = service.decide("U2", "movie")  # miss: may call the no-ops
        with monkeypatch.context() as patch:
            forbid(patch)
            for _ in range(5):
                assert service.decide("U2", "movie") is first
        report_traffic(service)  # the token moves
        second = service.decide("U2", "movie")  # miss again
        assert second is not first
        with monkeypatch.context() as patch:
            forbid(patch)
            for _ in range(3):
                assert service.decide("U2", "movie") is second
        stats = service.snapshot()["decision_cache"]
        assert (stats["hits"], stats["misses"]) == (8, 2)
        assert service.vra.decision_count == 10

    def test_instruments_read_the_same_with_the_memo_on_or_off(self):
        def run(compiled_routing):
            service = build_service(
                compiled_routing=compiled_routing, observability=True
            )
            for round_ in range(3):
                for home in ("U1", "U2", "U3", "U4"):  # U4 serves locally
                    for _ in range(3):
                        service.decide(home, "movie")
                report_traffic(service, ("8am", "4pm", "8am")[round_])
            return service

        plain, memoed = run(False), run(True)
        obs = memoed.obs
        decisions = obs.counter("vra.decisions").value
        assert decisions == memoed.vra.decision_count == 36
        assert obs.counter("decision.hits").value == 24
        assert obs.counter("decision.hits").value + obs.counter("decision.misses").value == decisions
        assert obs.histogram("vra.decision_latency_ms").count == decisions
        for name in ("vra.decisions", "vra.local_serves"):
            assert obs.counter(name).value == plain.obs.counter(name).value
        for name in ("vra.candidates", "vra.decision_latency_ms"):
            assert obs.histogram(name).count == plain.obs.histogram(name).count
        assert obs.histogram("vra.candidates").total == plain.obs.histogram("vra.candidates").total


class TestTryDecideTrace:
    def test_degraded_outcome_is_traced_only_when_the_tracer_is_on(self):
        from repro.sim.trace import Tracer

        def run(tracer):
            service = VoDService(
                Simulator(), build_grnet_topology(), ServiceConfig(), tracer=tracer
            )
            service.seed_title("U4", MOVIE)
            service.start()
            service.servers["U4"].online = False
            return service.try_decide("U2", "movie")

        tracer = Tracer()
        outcome = run(tracer)
        assert not outcome.ok
        [record] = tracer.events("vra.degraded")
        assert record.message == f"movie at U2: {outcome.outcome}"
        assert record.data == {
            "home_uid": "U2", "title_id": "movie", "outcome": outcome.outcome
        }
        silent = Tracer(enabled=False)
        assert run(silent).outcome == outcome.outcome
        assert silent.events() == []
