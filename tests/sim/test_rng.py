"""Unit tests for the named RNG registry."""

from repro.sim.rng import RngRegistry


class TestRngRegistry:
    def test_same_name_same_instance(self):
        rngs = RngRegistry(1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_streams_reproducible_across_registries(self):
        first = RngRegistry(42).stream("arrivals")
        second = RngRegistry(42).stream("arrivals")
        assert [first.random() for _ in range(10)] == [
            second.random() for _ in range(10)
        ]

    def test_different_names_give_independent_streams(self):
        rngs = RngRegistry(42)
        a = [rngs.stream("a").random() for _ in range(5)]
        b = [rngs.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_master_seeds_differ(self):
        a = RngRegistry(1).stream("x").random()
        b = RngRegistry(2).stream("x").random()
        assert a != b

    def test_adding_a_stream_does_not_shift_existing(self):
        plain = RngRegistry(7)
        baseline = [plain.stream("keep").random() for _ in range(5)]

        busy = RngRegistry(7)
        busy.stream("other")  # extra stream created first
        busy.stream("another")
        values = [busy.stream("keep").random() for _ in range(5)]
        assert values == baseline
