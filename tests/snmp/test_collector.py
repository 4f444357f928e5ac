"""Unit tests for the SNMP statistics modules and the collection service."""

import pytest

from repro.database.records import LinkEntry
from repro.database.store import ServiceDatabase
from repro.errors import SnmpError
from repro.sim.engine import Simulator
from repro.snmp.collector import NodeStatisticsModule, StatisticsService

from .both_ends_oracle import (
    BothEndsStatisticsService,
    link_stats,
    use_both_ends_oracle,
)


def make_db(topology) -> ServiceDatabase:
    database = ServiceDatabase()
    for link in topology.links():
        database.register_link(
            LinkEntry(
                link_name=link.name,
                endpoints=link.endpoints,
                total_bandwidth_mbps=link.capacity_mbps,
            )
        )
    return database


class TestNodeStatisticsModule:
    def test_first_poll_is_baseline_only(self, grnet):
        database = make_db(grnet)
        module = NodeStatisticsModule(grnet, "U2", database.limited_access())
        assert module.collect(0.0) == {}
        assert module.samples_written == 0

    def test_second_poll_writes_utilization(self, grnet):
        grnet.link_named("Patra-Athens").set_background_mbps(1.0)
        database = make_db(grnet)
        module = NodeStatisticsModule(grnet, "U2", database.limited_access())
        module.collect(0.0)
        written = module.collect(60.0)
        stats = written["Patra-Athens"]
        assert stats.used_mbps == pytest.approx(1.0, rel=1e-3)
        assert stats.utilization == pytest.approx(0.5, rel=1e-3)
        assert stats.timestamp == 60.0
        assert database.link_entry("Patra-Athens").used_mbps == pytest.approx(1.0, rel=1e-3)

    def test_rate_averaged_over_interval(self, grnet):
        link = grnet.link_named("Patra-Athens")
        database = make_db(grnet)
        module = NodeStatisticsModule(grnet, "U2", database.limited_access())
        module.collect(0.0)
        link.set_background_mbps(2.0)
        module.agent.advance(30.0)  # 30 s at 2 Mbps
        link.set_background_mbps(0.0)
        written = module.collect(60.0)  # 30 s idle
        assert written["Patra-Athens"].used_mbps == pytest.approx(1.0, rel=1e-3)

    def test_non_positive_interval_rejected(self, grnet):
        database = make_db(grnet)
        module = NodeStatisticsModule(grnet, "U2", database.limited_access())
        module.collect(10.0)
        with pytest.raises(SnmpError):
            module.collect(10.0)

    def test_utilization_capped_at_one(self, grnet):
        grnet.link_named("Patra-Athens").set_background_mbps(5.0)  # clamps to 2
        database = make_db(grnet)
        module = NodeStatisticsModule(grnet, "U2", database.limited_access())
        module.collect(0.0)
        written = module.collect(60.0)
        assert written["Patra-Athens"].utilization <= 1.0


class TestStatisticsService:
    def test_periodic_collection_updates_all_links(self, grnet):
        sim = Simulator()
        for link in grnet.links():
            link.set_background_mbps(0.25 * link.capacity_mbps)
        database = make_db(grnet)
        service = StatisticsService(sim, grnet, database.limited_access(), period_s=60.0)
        service.start()
        sim.run(until=130.0)
        for entry in database.link_entries():
            assert entry.latest_stats is not None
            assert entry.utilization == pytest.approx(0.25, rel=1e-3)

    def test_one_module_per_node(self, grnet):
        sim = Simulator()
        database = make_db(grnet)
        service = StatisticsService(sim, grnet, database.limited_access())
        assert len(service.modules) == grnet.node_count

    def test_invalid_period_rejected(self, grnet):
        sim = Simulator()
        database = make_db(grnet)
        with pytest.raises(SnmpError):
            StatisticsService(sim, grnet, database.limited_access(), period_s=0.0)

    def test_stats_track_changing_traffic(self, grnet):
        sim = Simulator()
        database = make_db(grnet)
        link = grnet.link_named("Patra-Athens")
        service = StatisticsService(sim, grnet, database.limited_access(), period_s=60.0)
        service.start()
        link.set_background_mbps(0.4)
        sim.run(until=61.0)
        first = database.link_entry("Patra-Athens").used_mbps
        link.set_background_mbps(1.6)
        sim.run(until=121.0)
        second = database.link_entry("Patra-Athens").used_mbps
        assert first == pytest.approx(0.4, rel=1e-2)
        assert second == pytest.approx(1.6, rel=1e-2)


class TestOneReporterPerLink:
    """A round asks one endpoint module per link and writes once."""

    def test_both_endpoints_always_compute_the_same_sample(self, grnet):
        """The redundancy the old round paid for: two modules polled at the
        same instants read the same rate over the same interval, so their
        samples are bit-equal — through rate changes and counter wraps."""
        link = grnet.link_named("Patra-Athens")
        database = make_db(grnet)
        admin = database.limited_access()
        ends = [NodeStatisticsModule(grnet, uid, admin) for uid in link.endpoints]
        wrapped, previous = False, 0
        for step in range(40):
            now = 9_000.0 * step  # ~1 Mbps a direction-pair: a wrap every ~8 polls
            link.set_background_mbps((step * 0.37) % link.capacity_mbps)
            first, second = (module.sample(now) for module in ends)
            assert first.get(link.name) == second.get(link.name)
            counters = [module.agent.poll(now)[link.name] for module in ends]
            assert counters[0] == counters[1]
            # A value below the previous poll's means the counter wrapped.
            wrapped = wrapped or counters[0][0] < previous
            previous = counters[0][0]
        assert wrapped

    def test_reporter_is_the_earlier_created_endpoint(self, grnet):
        sim = Simulator()
        service = StatisticsService(sim, grnet, make_db(grnet).limited_access(), period_s=60.0)
        asked = []
        for module in service.modules:
            def spy(now, links=None, module=module, sample=module.sample):
                asked.extend((link.name, module.node_uid) for link in links)
                return sample(now, links)

            module.sample = spy
        service.start()
        asked.clear()  # the baseline poll reads every interface regardless
        sim.run(until=61.0)
        order = {module.node_uid: i for i, module in enumerate(service.modules)}
        assert sorted(asked) == sorted(  # each link once, from its older end
            (link.name, min(link.endpoints, key=order.__getitem__))
            for link in grnet.links()
        )

    def test_round_bumps_the_epoch_once_and_a_blackout_not_at_all(self, grnet):
        sim = Simulator()
        database = make_db(grnet)
        service = StatisticsService(sim, grnet, database.limited_access(), period_s=60.0)
        registered = database.link_stats_version
        service.start()  # the baseline poll writes nothing
        assert database.link_stats_version == registered
        sim.run(until=61.0)
        assert database.link_stats_version == registered + 1
        assert sum(m.samples_written for m in service.modules) == grnet.link_count
        service.blackout()
        sim.run(until=200.0)
        assert database.link_stats_version == registered + 1
        assert service.blackout_skips == 2
        service.restore()
        sim.run(until=241.0)
        assert database.link_stats_version == registered + 2

    def test_rounds_match_the_both_ends_oracle(self, grnet):
        """Same database, same changed-sample count, round after round —
        the oracle pays two writes and two bumps a link for it."""
        from repro.network.grnet import build_grnet_topology

        sides = []
        for cls in (StatisticsService, BothEndsStatisticsService):
            sim, topology = Simulator(), build_grnet_topology()
            database = make_db(topology)
            service = cls(sim, topology, database.limited_access(), period_s=60.0)
            service.start()
            sides.append((sim, topology, database, service))
        for step in range(1, 8):
            for sim, topology, _, service in sides:
                for i, link in enumerate(topology.links()):
                    if (i + step) % 3 == 0:  # some links move, some do not
                        link.set_background_mbps((0.11 * step * (i + 1)) % link.capacity_mbps)
                if step == 4:
                    service.blackout()
                if step == 6:
                    service.restore()
            before = [database.link_stats_version for _, _, database, _ in sides]
            for sim, _, _, _ in sides:
                sim.run(until=60.0 * step + 1.0)
            (_, _, new_db, new), (_, _, old_db, old) = sides
            assert link_stats(new_db) == link_stats(old_db)
            assert sum(m.changed_samples for m in new.modules) == sum(
                m.changed_samples for m in old.modules
            )
            collected = 0 if new.blacked_out else 1
            assert new_db.link_stats_version - before[0] == collected
            assert old_db.link_stats_version - before[1] == collected * 2 * grnet.link_count

    def test_second_module_for_a_node_rejected(self, grnet):
        service = StatisticsService(Simulator(), grnet, make_db(grnet).limited_access())
        with pytest.raises(SnmpError, match="already has a statistics module"):
            service.add_node("U2")
        assert len(service.modules) == grnet.node_count


class TestRuntimeExpansion:
    def test_added_server_links_are_reported_as_before(self):
        """A node joining through ``VoDService.add_server``: its links show
        up in the database from the next round on, and every link's entry
        equals the both-ends round's in every round — the first round
        included, where only the old endpoint is past its baseline."""
        from repro.core.service import ServiceConfig, VoDService
        from repro.network.grnet import apply_traffic_sample, build_grnet_topology
        from repro.network.link import Link
        from repro.network.node import Node

        services = []
        for oracle in (False, True):
            service = VoDService(
                Simulator(), build_grnet_topology(), ServiceConfig(snmp_period_s=60.0)
            )
            if oracle:
                use_both_ends_oracle(service)
            service.start()
            services.append(service)

        def run_round(step):
            for service in services:
                service.sim.run(until=60.0 * step + 1.0)
            new, old = (link_stats(service.database) for service in services)
            assert new == old
            return new

        apply_traffic_sample(services[0].topology, "8am")
        apply_traffic_sample(services[1].topology, "8am")
        run_round(1)
        for service in services:
            service.add_server(
                Node("U7", name="Larissa"),
                [
                    Link("U7", "U1", capacity_mbps=34.0, name="Larissa-Athens"),
                    Link("U7", "U3", capacity_mbps=8.0, name="Larissa-Thessaloniki"),
                ],
            )
            service.topology.link_named("Larissa-Athens").set_background_mbps(5.0)
        assert link_stats(services[0].database)["Larissa-Athens"] is None
        first = run_round(2)  # U7's module is still taking its baseline
        assert first["Larissa-Athens"].used_mbps == 0.0
        assert first["Larissa-Athens"].timestamp == 120.0
        for step in (3, 4):
            stats = run_round(step)
            assert stats["Larissa-Athens"].used_mbps == pytest.approx(5.0, rel=1e-3)
            assert stats["Larissa-Thessaloniki"].used_mbps == 0.0
        new, old = services
        assert sum(m.changed_samples for m in new.statistics.modules) == sum(
            m.changed_samples for m in old.statistics.modules
        )
