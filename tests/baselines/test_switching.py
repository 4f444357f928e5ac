"""Unit tests for the switching-cadence baselines."""

import pytest

from repro.baselines.switching import NeverSwitch, PeriodicRecompute
from repro.core.vra import VraDecision
from repro.errors import ReproError
from repro.network.routing.paths import Path


def decision(server):
    return VraDecision(
        title_id="t",
        home_uid="A",
        chosen_uid=server,
        served_locally=False,
        path=Path(nodes=("A", server), cost=1.0),
    )


def rotating_decider(servers):
    state = {"i": 0}

    def decide(cluster):
        value = decision(servers[state["i"] % len(servers)])
        state["i"] += 1
        return value

    return decide


class TestNeverSwitch:
    def test_freezes_first_decision(self):
        wrapper = NeverSwitch(rotating_decider(["B", "C", "D"]))
        results = [wrapper(0).chosen_uid for _ in range(5)]
        assert results == ["B"] * 5
        assert wrapper.underlying_calls == 1

    def test_independent_instances_refreeze(self):
        decide = rotating_decider(["B", "C"])
        first = NeverSwitch(decide)
        second = NeverSwitch(decide)
        assert first(0).chosen_uid == "B"
        assert second(0).chosen_uid == "C"


class TestPeriodicRecompute:
    def test_period_one_recomputes_always(self):
        wrapper = PeriodicRecompute(rotating_decider(["B", "C", "D"]), period=1)
        assert [wrapper(0).chosen_uid for _ in range(3)] == ["B", "C", "D"]
        assert wrapper.underlying_calls == 3

    def test_period_three_holds_decision(self):
        wrapper = PeriodicRecompute(rotating_decider(["B", "C", "D"]), period=3)
        results = [wrapper(0).chosen_uid for _ in range(7)]
        assert results == ["B", "B", "B", "C", "C", "C", "D"]
        assert wrapper.underlying_calls == 3

    def test_invalid_period_rejected(self):
        with pytest.raises(ReproError):
            PeriodicRecompute(lambda cluster: decision("B"), period=0)
