"""Property tests: the compiled routing core is bit-for-bit the python path.

``TopologySnapshot`` is a performance substrate with a hard correctness
contract: under ANY interleaving of traffic rewrites and link failures /
recoveries, the compiled kernels must reproduce the pure-python path
*byte for byte* — same weight/NV tables (same dict order, same float
reprs), same Dijkstra trees (same settlement order, same tie-breaks),
same exceptions.  A last-ulp drift here would silently change admission
decisions, so these properties compare representations, not just values.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.lvn import weight_table_with_nv
from repro.core.vra import VirtualRoutingAlgorithm
from repro.errors import LinkCapacityError, ReproError
from repro.network.compiled import TopologySnapshot
from repro.network.flows import FlowManager
from repro.network.grnet import GRNET_LINKS, GRNET_NODES, build_grnet_topology
from repro.network.routing.dijkstra import dijkstra

NODES = sorted(GRNET_NODES)
LINK_NAMES = [name for name, _, _ in GRNET_LINKS]
CAPACITY = {name: capacity for name, _, capacity in GRNET_LINKS}

#: One churn op: rewrite a link's background traffic or flip it offline.
link_ops = st.lists(
    st.tuples(
        st.sampled_from(LINK_NAMES),
        st.sampled_from(["traffic", "toggle"]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=0,
    max_size=6,
)
#: A run: churn batches, each followed by one observation.
churn_runs = st.lists(
    st.tuples(link_ops, st.sampled_from(NODES)), min_size=1, max_size=8
)


def apply_ops(topology, ops):
    for name, kind, u in ops:
        link = topology.link_named(name)
        if kind == "traffic":
            link.set_background_mbps(u * CAPACITY[name])
        else:
            link.online = not link.online


def table_fingerprint(weights, nv):
    """Dict order plus the exact repr of every float (bit-for-bit)."""
    return (
        [(name, repr(value)) for name, value in weights.items()],
        [(uid, repr(value)) for uid, value in nv.items()],
    )


def tables_or_error(compute):
    try:
        weights, nv = compute()
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    return table_fingerprint(weights, nv)


def tree_fingerprint(result):
    return (
        result.source,
        [(uid, repr(d)) for uid, d in result.distances.items()],
        list(result.predecessors.items()),
    )


class TestWeightTableEquivalence:
    @given(churn_runs)
    @settings(max_examples=60, deadline=None)
    def test_tables_bit_identical_under_churn(self, runs):
        topology = build_grnet_topology()
        snapshot = TopologySnapshot(topology)
        for ops, _home in runs:
            apply_ops(topology, ops)
            compiled = tables_or_error(
                lambda: snapshot.weight_table_with_nv(None, 10.0)
            )
            python = tables_or_error(
                lambda: weight_table_with_nv(topology, None, 10.0)
            )
            assert compiled == python
            if compiled[0] != "error":
                # The tables must also survive a JSON round-trip identically
                # (they are persisted in decision audit records).
                weights, _ = snapshot.weight_table_with_nv(None, 10.0)
                reference, _ = weight_table_with_nv(topology, None, 10.0)
                assert json.dumps(weights) == json.dumps(reference)


class TestDijkstraEquivalence:
    @given(churn_runs)
    @settings(max_examples=60, deadline=None)
    def test_trees_bit_identical_under_churn(self, runs):
        topology = build_grnet_topology()
        snapshot = TopologySnapshot(topology)
        for ops, source in runs:
            apply_ops(topology, ops)
            table = snapshot.weight_table(None, 10.0)
            compiled = snapshot.dijkstra(source, table)
            python = dijkstra(topology, source, lambda link: table[link.name])
            assert tree_fingerprint(compiled) == tree_fingerprint(python)
            for uid in compiled.distances:
                assert compiled.node_path(uid) == python.node_path(uid)


class TestFlowLedgerEquivalence:
    PATHS = [
        ["U2", "U1"],
        ["U2", "U3", "U4"],
        ["U2", "U1", "U6", "U5"],
        ["U1", "U4", "U5"],
        ["U3", "U4", "U1", "U6"],
    ]

    operations = st.lists(
        st.one_of(
            st.tuples(
                st.just("reserve"),
                st.integers(min_value=0, max_value=len(PATHS) - 1),
                st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
            ),
            st.tuples(
                st.just("release"), st.integers(min_value=0, max_value=30), st.just(0.0)
            ),
        ),
        min_size=1,
        max_size=50,
    )

    @staticmethod
    def reference_reserve(topology, node_path, rate):
        """Independent oracle for atomic admission: a failed reserve must
        mutate nothing (the old reserve-then-rollback semantics left float
        drift behind — ``x + r - r != x`` — which is exactly the defect the
        check-then-commit rewrite removes)."""
        links = list(topology.path_links(node_path))
        for link in links:
            if rate > link.free_mbps + 1e-9:
                link.reserve(rate)  # raises the canonical error, mutates nothing
        for link in links:
            link.reserve(rate)

    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_ledgers_match_atomic_reference(self, ops):
        """Same op stream, two topologies: memoized FlowManager vs the
        naive oracle must leave every link with bit-identical reserved
        bandwidth and agree on each admission verdict."""
        fast_topo = build_grnet_topology()
        ref_topo = build_grnet_topology()
        manager = FlowManager(fast_topo)
        active = []
        for op, index, rate in ops:
            if op == "reserve":
                path = self.PATHS[index]
                fast_err = ref_err = None
                try:
                    active.append(manager.reserve(list(path), rate))
                except LinkCapacityError as exc:
                    fast_err = str(exc)
                try:
                    self.reference_reserve(ref_topo, path, rate)
                except LinkCapacityError as exc:
                    ref_err = str(exc)
                assert fast_err == ref_err
            elif active:
                flow = active.pop(index % len(active))
                manager.release(flow)
                for link in ref_topo.path_links(flow.node_path):
                    link.release(flow.rate_mbps)
            fast_ledger = {
                link.name: repr(link.reserved_mbps) for link in fast_topo.links()
            }
            ref_ledger = {
                link.name: repr(link.reserved_mbps) for link in ref_topo.links()
            }
            assert fast_ledger == ref_ledger


def decision_fingerprint(vra, home, holders=None, down=()):
    """Everything observable about one decision — the lazily completed
    audit trail included, dict insertion order and float reprs and all."""
    if holders is None:
        holders = [uid for uid in NODES if uid != home]
    try:
        d = vra.decide(
            home, "t", holders=holders, poll=lambda uid: uid not in down
        )
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (
        d.chosen_uid,
        d.served_locally,
        d.path.nodes,
        repr(d.cost),
        d.polled_out,
        [(name, repr(w)) for name, w in sorted(d.weights.items())],
        [(uid, p.nodes, repr(p.cost)) for uid, p in d.candidate_paths.items()],
        None if d.dijkstra_result is None else tree_fingerprint(d.dijkstra_result),
    )


#: A routed run: churn, then one decision over a random *subset* of
#: holders, some of them polled out.
holder_sets = st.lists(st.sampled_from(NODES), min_size=1, max_size=5, unique=True)
routed_runs = st.lists(
    st.tuples(
        link_ops,
        st.sampled_from(NODES),
        holder_sets,
        st.frozensets(st.sampled_from(NODES), max_size=3),
    ),
    min_size=1,
    max_size=8,
)


class TestVraEquivalence:
    @given(routed_runs)
    @settings(max_examples=80, deadline=None)
    def test_compiled_vra_decisions_match_python_vra(self, runs):
        """Goal-directed compiled search vs the full-tree python oracle."""
        topology = build_grnet_topology()
        fast = VirtualRoutingAlgorithm(topology, compiled=True)
        plain = VirtualRoutingAlgorithm(topology, compiled=False)
        for ops, home, holders, down in runs:
            apply_ops(topology, ops)
            assert decision_fingerprint(
                fast, home, holders, down
            ) == decision_fingerprint(plain, home, holders, down)

    @given(routed_runs)
    @example(
        # An online flip beyond the radius that moves no weight: the
        # table comes out equal, yet the decision's audit trail must be
        # built against the flipped topology.
        runs=[
            (
                [("Patra-Ioannina", "traffic", 1.0), ("Patra-Athens", "toggle", 0.0)],
                "U2", ["U1", "U3"], frozenset(),
            ),
            ([("Thessaloniki-Athens", "toggle", 0.0)], "U1", ["U1"], frozenset()),
        ],
    )
    @settings(max_examples=80, deadline=None)
    def test_compiled_delta_vra_matches_python_cold(self, runs):
        """Compiled snapshot + the routing cache, against a cache-less
        pure-python VRA computing everything from scratch.  Re-asked
        questions are answered by prefixes cached since the last churn
        batch, so their audit trail must equal a cold run under the
        *new* table."""
        topology = build_grnet_topology()
        cached = VirtualRoutingAlgorithm(
            topology,
            compiled=True,
            epoch_of=lambda: (topology.traffic_version, topology.state_version),
        )
        assert cached.cache is not None
        plain = VirtualRoutingAlgorithm(topology, compiled=False)
        asked = []
        for ops, home, holders, down in runs:
            apply_ops(topology, ops)
            asked.append((home, tuple(holders), down))
            # Re-ask every earlier question too: a search cached before
            # this batch must not answer any of them.
            for key in asked:
                assert decision_fingerprint(cached, *key) == decision_fingerprint(
                    plain, *key
                )
