"""Property-based tests: VRA decision invariants on random traffic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vra import VirtualRoutingAlgorithm
from repro.network.grnet import GRNET_LINKS, GRNET_NODES, build_grnet_topology
from tests.reference.dijkstra import dijkstra

NODES = sorted(GRNET_NODES)

utilizations = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=len(GRNET_LINKS),
    max_size=len(GRNET_LINKS),
)
homes = st.sampled_from(NODES)
holder_sets = st.sets(st.sampled_from(NODES), min_size=1, max_size=4)


def loaded_grnet(values):
    topology = build_grnet_topology()
    for (name, _, capacity), u in zip(GRNET_LINKS, values):
        topology.link_named(name).set_background_mbps(u * capacity)
    return topology


@given(utilizations, homes, holder_sets)
@settings(max_examples=150, deadline=None)
def test_chosen_is_argmin_of_candidate_costs(values, home, holders):
    topology = loaded_grnet(values)
    vra = VirtualRoutingAlgorithm(topology)
    decision = vra.decide(home, "t", holders=sorted(holders))
    if decision.served_locally:
        assert home in holders
        assert decision.cost == 0.0
        return
    assert decision.chosen_uid in holders
    best = min(decision.candidate_paths.values(), key=lambda p: p.cost)
    assert decision.cost <= best.cost + 1e-12


@given(utilizations, homes, holder_sets)
@settings(max_examples=100, deadline=None)
def test_candidate_costs_match_independent_dijkstra(values, home, holders):
    topology = loaded_grnet(values)
    vra = VirtualRoutingAlgorithm(topology)
    decision = vra.decide(home, "t", holders=sorted(holders))
    if decision.served_locally:
        return
    weights = vra.weights()
    independent = dijkstra(topology, home, lambda l: weights[l.name])
    for uid, path in decision.candidate_paths.items():
        assert abs(path.cost - independent.cost(uid)) < 1e-12
        assert path.nodes[0] == home and path.nodes[-1] == uid


@given(utilizations, homes, holder_sets)
@settings(max_examples=100, deadline=None)
def test_adding_candidates_never_worsens_cost(values, home, holders):
    """More replicas can only help: decide() cost is monotone
    non-increasing in the holder set."""
    topology = loaded_grnet(values)
    vra = VirtualRoutingAlgorithm(topology)
    small = sorted(holders)
    large = sorted(set(NODES))
    cost_small = vra.decide(home, "t", holders=small).cost
    cost_large = vra.decide(home, "t", holders=large).cost
    assert cost_large <= cost_small + 1e-12


@given(utilizations, homes)
@settings(max_examples=100, deadline=None)
def test_decision_is_deterministic(values, home):
    topology = loaded_grnet(values)
    vra = VirtualRoutingAlgorithm(topology)
    holders = [uid for uid in NODES if uid != home][:3]
    first = vra.decide(home, "t", holders=holders)
    second = vra.decide(home, "t", holders=holders)
    assert first.chosen_uid == second.chosen_uid
    assert first.path.nodes == second.path.nodes
