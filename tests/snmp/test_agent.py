"""Unit tests for the per-node SNMP agent."""

import pytest

from repro.errors import SnmpError
from repro.snmp.agent import SnmpAgent
from repro.snmp.counters import counter_delta


class TestSnmpAgent:
    def test_instruments_adjacent_links_only(self, grnet):
        agent = SnmpAgent(grnet, "U2")
        assert agent.link_names == ["Patra-Athens", "Patra-Ioannina"]

    def test_unknown_node_rejected(self, grnet):
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            SnmpAgent(grnet, "U9")

    def test_counters_integrate_constant_rate(self, grnet):
        grnet.link_named("Patra-Athens").set_background_mbps(1.0)
        agent = SnmpAgent(grnet, "U2", start_time=0.0)
        first = agent.poll(0.0)
        second = agent.poll(60.0)
        in_delta = counter_delta(first["Patra-Athens"][0], second["Patra-Athens"][0])
        out_delta = counter_delta(first["Patra-Athens"][1], second["Patra-Athens"][1])
        # 1 Mbps for 60 s = 60 Mbit = 7.5e6 octets, split across directions.
        assert in_delta + out_delta == pytest.approx(7_500_000, rel=1e-6)

    def test_idle_link_counters_static(self, grnet):
        agent = SnmpAgent(grnet, "U2")
        first = agent.poll(10.0)
        second = agent.poll(20.0)
        assert first == second

    def test_rate_change_between_polls_uses_current_rate(self, grnet):
        link = grnet.link_named("Patra-Athens")
        agent = SnmpAgent(grnet, "U2")
        agent.poll(0.0)
        link.set_background_mbps(2.0)
        counters = agent.poll(30.0)
        total = counters["Patra-Athens"][0] + counters["Patra-Athens"][1]
        # 2 Mbps over 30 s = 60 Mbit = 7.5e6 octets.
        assert total == pytest.approx(7_500_000, rel=1e-6)

    def test_time_backwards_rejected(self, grnet):
        agent = SnmpAgent(grnet, "U2")
        agent.advance(100.0)
        with pytest.raises(SnmpError):
            agent.advance(50.0)

    def test_zero_elapsed_is_noop(self, grnet):
        grnet.link_named("Patra-Athens").set_background_mbps(1.0)
        agent = SnmpAgent(grnet, "U2")
        first = agent.poll(10.0)
        second = agent.poll(10.0)
        assert first == second

    def test_polling_a_subset_leaves_the_other_intervals_open(self, grnet):
        """Each link keeps its own last-advance time: an interface that
        was not asked for is neither integrated nor read, and catches up
        over its whole open interval when it is next polled."""
        athens, ioannina = (
            grnet.link_named("Patra-Athens"), grnet.link_named("Patra-Ioannina")
        )
        athens.set_background_mbps(1.0)
        ioannina.set_background_mbps(1.0)
        agent = SnmpAgent(grnet, "U2")
        agent.poll(0.0)
        partial = agent.poll(60.0, [athens])
        assert list(partial) == ["Patra-Athens"]
        assert sum(partial["Patra-Athens"]) == pytest.approx(7_500_000, rel=1e-6)
        whole = agent.poll(120.0)
        assert sum(whole["Patra-Athens"]) == pytest.approx(15_000_000, rel=1e-6)
        assert sum(whole["Patra-Ioannina"]) == pytest.approx(15_000_000, rel=1e-6)
