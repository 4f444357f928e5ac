"""Property-based tests: flow-reservation accounting conservation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import MIN_TRANSFER_MBPS
from repro.errors import FlowError, LinkCapacityError
from repro.network.flows import FlowManager
from repro.network.grnet import build_grnet_topology
from .topology_strategies import random_weighted_topology

NODES = ["U1", "U2", "U3", "U4", "U5", "U6"]

# Simple valid GRNET walks to reserve over.
PATHS = [
    ["U2", "U1"],
    ["U2", "U3", "U4"],
    ["U2", "U1", "U6", "U5"],
    ["U1", "U4", "U5"],
    ["U6", "U1"],
    ["U3", "U4", "U1", "U6"],
]

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("reserve"),
            st.integers(min_value=0, max_value=len(PATHS) - 1),
            st.floats(min_value=0.01, max_value=3.0, allow_nan=False),
        ),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=30), st.just(0.0)),
    ),
    min_size=1,
    max_size=60,
)


def expected_reserved(active_flows):
    """Recompute each link's reserved bandwidth from the active flow set."""
    totals = {}
    for flow in active_flows:
        for a, b in zip(flow.node_path, flow.node_path[1:]):
            key = tuple(sorted((a, b)))
            totals[key] = totals.get(key, 0.0) + flow.rate_mbps
    return totals


@given(operations)
@settings(max_examples=80, deadline=None)
def test_link_reservations_always_equal_active_flow_sum(ops):
    topology = build_grnet_topology()
    flows = FlowManager(topology)
    active = []
    for op, index, rate in ops:
        if op == "reserve":
            try:
                active.append(flows.reserve(list(PATHS[index]), rate))
            except LinkCapacityError:
                pass  # rejected reservations must leave accounting intact
        elif active:
            flow = active.pop(index % len(active))
            flows.release(flow)
        totals = expected_reserved(active)
        for link in topology.links():
            assert abs(link.reserved_mbps - totals.get(link.key, 0.0)) < 1e-9
    assert flows.active_count == len(active)


@given(operations)
@settings(max_examples=80, deadline=None)
def test_capacity_never_exceeded(ops):
    topology = build_grnet_topology()
    flows = FlowManager(topology)
    active = []
    for op, index, rate in ops:
        if op == "reserve":
            try:
                active.append(flows.reserve(list(PATHS[index]), rate))
            except LinkCapacityError:
                pass
        elif active:
            flows.release(active.pop(index % len(active)))
        for link in topology.links():
            assert link.reserved_mbps <= link.capacity_mbps + 1e-9


@given(operations)
@settings(max_examples=60, deadline=None)
def test_releasing_everything_restores_idle(ops):
    topology = build_grnet_topology()
    flows = FlowManager(topology)
    active = []
    for op, index, rate in ops:
        if op == "reserve":
            try:
                active.append(flows.reserve(list(PATHS[index]), rate))
            except LinkCapacityError:
                pass
        elif active:
            flows.release(active.pop(index % len(active)))
    for flow in active:
        flows.release(flow)
    assert flows.active_count == 0
    for link in topology.links():
        assert link.reserved_mbps == 0.0


# ---------------------------------------------------------------------- #
# a refused reservation is predictable from the bottleneck
# ---------------------------------------------------------------------- #
@st.composite
def loaded_path_and_rate(draw):
    """A random topology with background and reserved load, one simple
    path through it, and a rate aimed at the refusal boundary."""
    topology, _ = draw(random_weighted_topology(max_nodes=8))
    links = list(topology.links())
    for link in links:
        link.set_background_mbps(
            draw(st.sampled_from([0.0, 2.5, 9.96, 10.0])
                 | st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
        )
    flows = FlowManager(topology)
    for link in draw(st.lists(st.sampled_from(links), max_size=6)):
        try:
            flows.reserve(list(link.key), draw(st.floats(min_value=0.01, max_value=4.0)))
        except LinkCapacityError:
            pass
    # A simple path: a random walk that never revisits a node.
    path = [draw(st.sampled_from(sorted(topology.node_uids())))]
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        onward = sorted(
            link.other_end(path[-1]) for link in links
            if link.touches(path[-1]) and link.other_end(path[-1]) not in path
        )
        if not onward:
            break
        path.append(draw(st.sampled_from(onward)))
    if len(path) < 2:
        path.append(next(l.other_end(path[0]) for l in links if l.touches(path[0])))
    bottleneck = flows.bottleneck_mbps(path)
    target = draw(st.floats(min_value=0.5, max_value=8.0))
    rate = draw(
        st.sampled_from([
            max(min(target, bottleneck), MIN_TRANSFER_MBPS),  # the session's pick
            MIN_TRANSFER_MBPS,
            bottleneck + 1e-9,
            bottleneck + 2e-9,
            bottleneck + 0.5e-9,
            max(bottleneck - 1e-9, 1e-6),
            max(bottleneck, 1e-6),
        ])
        | st.floats(min_value=1e-6, max_value=12.0)
    )
    as_given = draw(st.sampled_from([list, tuple]))
    return topology, flows, as_given(path), rate


@given(loaded_path_and_rate())
@settings(max_examples=300, deadline=None)
def test_reserve_refuses_exactly_when_the_rate_exceeds_the_bottleneck(case):
    topology, flows, path, rate = case
    links = list(topology.links())
    predicted_refusal = rate > flows.bottleneck_mbps(path) + 1e-9
    assert flows.path_fits(path, rate) == (not predicted_refusal)
    before = [(link.reserved_mbps, link.traffic_version) for link in links]
    active = flows.active_count
    try:
        flow = flows.reserve(path, rate)
    except LinkCapacityError:
        assert predicted_refusal
        # A refusal touches nothing: no reserve/rollback churn.
        assert [(link.reserved_mbps, link.traffic_version) for link in links] == before
        assert flows.active_count == active
        return
    assert not predicted_refusal
    assert flow.node_path == tuple(path) and flows.active_count == active + 1
    on_path = {tuple(sorted(hop)) for hop in zip(path, path[1:])}
    for link, (reserved, version) in zip(links, before):
        if link.key in on_path:
            assert link.reserved_mbps == reserved + rate
            assert link.traffic_version == version + 1
        else:
            assert (link.reserved_mbps, link.traffic_version) == (reserved, version)
    flows.release(flow)
    assert flows.active_count == active
