"""The routing kernel: CSR topology snapshots for every LVN table and search.

:class:`TopologySnapshot` freezes a :class:`~repro.network.topology.Topology`
into flat int-indexed arrays — per-link endpoint/capacity/online arrays and a
CSR adjacency over node *positions* — and reuses them across decisions,
refreshing off the topology's ``state_version`` counter instead of re-walking
object adjacency per decision.  It is the only LVN table builder and the only
Dijkstra the package runs:

* :meth:`TopologySnapshot.weight_table` — equations (1)-(4) over the link
  arrays, with the optional per-node load term of the server-load extension;
* :meth:`TopologySnapshot.dijkstra` — shortest paths over the CSR arrays,
  optionally goal-directed (given targets it stops at the nearest one and
  returns that prefix of the full tree), or traced (the paper's Tables 4-5
  step rows).

Correctness contract — **bit-for-bit** against the textbook formulation:
every table, NV value and Dijkstra result (trace rows included) equals the
scalar equations of :mod:`repro.core.lvn` applied node by node and a
heap-of-``(distance, uid)`` Dijkstra over ``topology.links_at`` down to the
last ulp *and* down to dict insertion order.  ``tests/reference`` holds that
textbook formulation as the oracle of the kernel's tests.  The rules that
enforce it:

* The kernel executes the scalar equations' operations in their order: NV
  segment sums accumulate strictly left-to-right in ``links_at`` order,
  exactly like a python ``sum()``, and the load term is added last.
* Dijkstra's heap orders by ``(distance, uid-rank)`` where the rank is the
  node's index in sorted-uid order — the same total order as a
  ``(distance, uid)`` string comparison — and relaxation stays strict, so
  settlement order and the predecessor tree are determined by the weights
  alone.  A goal-directed run is the same loop cut short, so its result is
  the full run's restricted to the nodes it settled.

Everything here is plain python lists — the standard library only.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError, RoutingError, TopologyError
from repro.network.link import Link
from repro.network.routing.dijkstra import DijkstraResult, DijkstraStep
from repro.network.topology import Topology

#: The paper's suggested normalization constant (eq. 4); mirrors
#: ``repro.core.lvn.DEFAULT_NORMALIZATION_CONSTANT`` without importing the
#: core package from the network layer.
_DEFAULT_K = 10.0


class CompiledWeightTable(dict):
    """A weight table that also carries its values as a flat link array.

    A plain ``Dict[str, float]`` keyed by link name in ``topology.links()``
    order, which also keeps the per-link value list aligned with the
    snapshot's link order so :meth:`TopologySnapshot.dijkstra` can skip the
    per-link dict lookups, and the per-node NV list (eq. 2, load term
    included) in ``topology.node_uids()`` order.  ``structure_token``
    guards against reusing the array after the snapshot rebuilt its
    structure (the dict lookup still works then).
    """

    __slots__ = ("link_values", "node_values", "structure_token", "__weakref__")


class TopologySnapshot:
    """Int-indexed CSR view of a topology, invalidated by version counters.

    Nodes are addressed by *position* (insertion order — the order
    ``topology.nodes()`` yields, which every result dict follows) and
    carry their *rank* in sorted-uid order for Dijkstra tie-breaks.  Links
    are addressed by their ``topology.links()`` insertion index.

    Invalidation contract (see DESIGN.md):

    * ``topology.state_version`` unchanged — every array is current (used
      bandwidth is *not* mirrored; kernels read it per call through
      ``used_of``, so traffic changes need no refresh).
    * ``state_version`` moved, node/link counts unchanged — only online
      flags can have changed (links are never removed); refresh the online
      mask in O(links).
    * node or link count moved — full structural rebuild.
    """

    def __init__(self, topology: Topology):
        self._topology = topology
        self._seen_state_version = -1
        self._structure_version = 0
        self._rebuild_structure()
        self._seen_state_version = topology.state_version

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def structure_token(self) -> Tuple[int, int]:
        """Identity of the current structural arrays (snapshot, rebuild#)."""
        return self._token

    def _rebuild_structure(self) -> None:
        topology = self._topology
        uids = topology.node_uids()
        n = len(uids)
        pos_of = {uid: p for p, uid in enumerate(uids)}
        # Rank = index in sorted-uid order; (dist, rank) compares exactly
        # like (dist, uid) because rank is monotone in uid.
        rank = [0] * n
        for r, p in enumerate(sorted(range(n), key=uids.__getitem__)):
            rank[p] = r

        links: List[Link] = list(topology.links())
        index_of = {link.name: i for i, link in enumerate(links)}
        self._links = links
        self._link_names = [link.name for link in links]
        self._cap = [link.capacity_mbps for link in links]
        self._a_pos = [pos_of[link.a_uid] for link in links]
        self._b_pos = [pos_of[link.b_uid] for link in links]
        self._online = [link.online for link in links]

        # One CSR over node positions, segments in links_at() order — the
        # order of eq. 2's sums and of the textbook Dijkstra scan.
        inc_off = [0]
        inc_link: List[int] = []
        inc_nbr: List[int] = []
        linkless_pos: Optional[int] = None
        for p, uid in enumerate(uids):
            adjacent = topology.links_at(uid)
            if not adjacent and linkless_pos is None:
                linkless_pos = p
            for link in adjacent:
                inc_link.append(index_of[link.name])
                inc_nbr.append(pos_of[link.other_end(uid)])
            inc_off.append(len(inc_link))

        self._uids = uids
        self._pos_of = pos_of
        self._rank = rank
        self._inc_off = inc_off
        self._inc_link = inc_link
        self._inc_nbr = inc_nbr
        self._linkless_pos = linkless_pos
        self._lv_cache: Dict[float, List[float]] = {}
        self._values_memo: Optional[Tuple[Dict[str, float], List[float], bool]] = None
        self._structure_version += 1
        self._token = (id(self), self._structure_version)
        self._node_count = n
        self._link_count = len(links)
        self._rebuild_online_derived()

    def _rebuild_online_derived(self) -> None:
        """Online-dependent derived arrays, rebuilt on every online flip.

        Structure and online state change orders of magnitude less often
        than decisions are made, so everything the per-call kernels would
        otherwise re-derive from the online mask is hoisted here: the
        online-filtered NV segments with their capacity totals (the
        denominators of eq. 2 — summed strictly left-to-right in
        ``links_at`` order, like the python ``sum()``), and Dijkstra's
        online-only edge lists (kept in ``links_at`` order so lazy weight
        validation fires in the textbook scan order).
        """
        n = self._node_count
        inc_off, inc_link, inc_nbr = self._inc_off, self._inc_link, self._inc_nbr
        online, cap = self._online, self._cap
        nv_links: List[List[int]] = []
        nv_cap: List[float] = []
        adj: List[List[Tuple[int, int]]] = []
        for p in range(n):
            segment = []
            total_cap = 0.0
            edges = []
            for j in range(inc_off[p], inc_off[p + 1]):
                i = inc_link[j]
                if online[i]:
                    segment.append(i)
                    total_cap += cap[i]
                    edges.append((inc_nbr[j], i))
            nv_links.append(segment)
            nv_cap.append(total_cap)
            adj.append(edges)
        self._nv_links = nv_links
        self._nv_cap = nv_cap
        self._adj_online = adj

    def _refresh_online(self) -> None:
        links = self._links
        online = self._online
        for i in range(len(links)):
            online[i] = links[i].online
        self._rebuild_online_derived()

    def refresh(self) -> None:
        """Bring the arrays up to date with the topology's version counters."""
        topology = self._topology
        version = topology.state_version
        if version == self._seen_state_version:
            return
        if (
            topology.node_count != self._node_count
            or topology.link_count != self._link_count
        ):
            self._rebuild_structure()
        else:
            self._refresh_online()
        self._seen_state_version = version

    # ------------------------------------------------------------------ #
    # LVN kernel (equations 1-4)
    # ------------------------------------------------------------------ #
    def _lv_values(self, normalization_constant: float) -> List[float]:
        """Per-link LV = capacity / K (eq. 4), cached per K."""
        cached = self._lv_cache.get(normalization_constant)
        if cached is None:
            cached = [cap / normalization_constant for cap in self._cap]
            self._lv_cache[normalization_constant] = cached
        return cached

    def weight_table(
        self,
        used_of: Optional[Callable[[Link], float]] = None,
        normalization_constant: float = _DEFAULT_K,
        node_load: Optional[Callable[[str], float]] = None,
    ) -> CompiledWeightTable:
        """Equations (1)-(4) over the arrays, bit-identical to
        :func:`repro.core.lvn.link_validation_number` per link.

        ``node_load`` is the server-load extension's per-node term: each
        NV is the link ratio plus ``node_load(uid)``, exactly
        :func:`repro.core.lvn.node_validation` with that term.

        Raises:
            ReproError: What the scalar equations raise first in node
                order: a node with no adjacent links, or a negative load;
                then a non-positive normalization constant.  A node whose
                links are all *offline* gets ratio 0.0.
        """
        self.refresh()
        linkless = self._linkless_pos
        loads: Optional[List[float]] = None
        if node_load is not None:
            loads = []
            for uid in self._uids[:linkless]:  # all of them when None
                load = node_load(uid)
                if load < 0.0:
                    raise ReproError(
                        f"node load for {uid!r} cannot be negative, got {load!r}"
                    )
                loads.append(load)
        if linkless is not None:
            raise ReproError(
                f"node {self._uids[linkless]!r} has no adjacent links; NV undefined"
            )
        if self._link_count and not (normalization_constant > 0.0):
            raise ReproError(
                f"normalization constant must be positive, got {normalization_constant!r}"
            )
        links = self._links
        if used_of is None:
            used_vals = [link.used_mbps for link in links]
        else:
            used_vals = [used_of(link) for link in links]

        nv_vals = [0.0] * self._node_count
        for p, segment in enumerate(self._nv_links):
            total_cap = self._nv_cap[p]
            if total_cap > 0.0:
                total_used = 0.0
                for i in segment:
                    total_used += used_vals[i]
                nv_vals[p] = total_used / total_cap
        if loads is not None:
            nv_vals = [ratio + load for ratio, load in zip(nv_vals, loads)]
        lv = self._lv_values(normalization_constant)
        weights = [
            (nv_vals[a] if nv_vals[a] >= nv_vals[b] else nv_vals[b]) + (u / c) * v
            for a, b, u, c, v in zip(
                self._a_pos, self._b_pos, used_vals, self._cap, lv
            )
        ]
        table = CompiledWeightTable(zip(self._link_names, weights))
        table.link_values = weights
        table.node_values = nv_vals
        table.structure_token = self._token
        return table

    # ------------------------------------------------------------------ #
    # Dijkstra over the CSR arrays
    # ------------------------------------------------------------------ #
    def _weight_values(self, weights: Dict[str, float]) -> Tuple[List[float], bool]:
        """``weights`` as a link-aligned array, plus "no negative/NaN in it".

        Memoized on the table's identity (a table is never mutated once
        built): one routing epoch asks for the same table once per
        Dijkstra run.
        """
        memo = self._values_memo
        if memo is not None and memo[0] is weights:
            return memo[1], memo[2]
        if (
            type(weights) is CompiledWeightTable
            and weights.structure_token == self._token
        ):
            values = weights.link_values
        else:
            values = [weights[name] for name in self._link_names]
        valid = _all_valid(values)
        self._values_memo = (weights, values, valid)
        return values, valid

    def dijkstra(
        self,
        source: str,
        weights: Dict[str, float],
        targets: Iterable[str] = (),
        trace: bool = False,
    ) -> DijkstraResult:
        """Shortest paths from ``source`` over the link weights ``weights``.

        Without ``targets``: the full single-source tree.  Ties break on
        the node uid and a relaxation wins only on a strict improvement,
        so the result is a pure function of (topology, online set,
        weights) — which is what lets a tree cached under one routing
        epoch stand in for a fresh run anywhere in that epoch.

        ``trace=True`` records one :class:`DijkstraStep` per settled node
        in the layout of the paper's Tables 4-5 (``steps``).  The paper's
        own Table 4 misses a relaxation (DESIGN.md §5); this search
        performs all of them, so its Experiment A row differs from the
        misprinted one.

        With ``targets`` (the VRA passes the available holders) the search
        stops once the nearest target is settled and the heap top is
        *strictly* farther — every node tying with it is drained first —
        and returns that prefix of the full tree (``complete`` False,
        ``radius`` the nearest target's distance; see
        :class:`~repro.network.routing.dijkstra.DijkstraResult`).  Unknown
        or unreachable targets never stop it.  A table holding a negative
        or NaN weight anywhere is searched in full, so the lazy scan raises
        its ``RoutingError`` for the first such link in scan order even
        when that link lies beyond the stopping radius.

        Raises:
            TopologyError: If ``source`` is not in the topology.
            RoutingError: If an online link the scan reaches has a
                negative or NaN weight.
        """
        self.refresh()
        pos_of = self._pos_of
        pos = pos_of.get(source)
        if pos is None:
            # Checked before weight resolution so an unknown source raises
            # TopologyError even with stale/empty weights.
            raise TopologyError(
                f"Dijkstra source {source!r} is not in topology {self._topology.name!r}"
            )
        values, valid = self._weight_values(weights)
        if not valid:
            targets = ()  # full run: its lazy scan finds the link to blame
        n = self._node_count
        inf = float("inf")
        dist = [inf] * n
        prev = [-1] * n
        settled = bytearray(n)
        goals = {pos_of[uid] for uid in targets if uid in pos_of}
        radius = inf  # becomes the first settled target's distance
        complete = True
        rank = self._rank
        adj, names = self._adj_online, self._link_names
        heappush, heappop = heapq.heappush, heapq.heappop

        dist[pos] = 0.0
        reached = [pos]  # dict insertion order: source, then first relaxations
        heap: List[Tuple[float, int, int]] = [(0.0, rank[pos], pos)]
        order: List[int] = []  # settlement order, kept only when tracing
        steps: List[DijkstraStep] = []
        while heap:
            d, _, u = heappop(heap)
            if settled[u]:
                continue
            if d > radius:
                # Strictly farther than the nearest target: everything at
                # its distance is settled, so min((cost, uid)) is decided.
                complete = False
                break
            settled[u] = 1
            if u in goals:
                radius = d
            # Offline links are already filtered out of the edge lists, so
            # an offline link's weight is never validated.
            for v, i in adj[u]:
                cost = values[i]
                if not (cost >= 0.0):  # rejects negatives and NaN
                    raise RoutingError(
                        f"link {names[i]!r} has invalid weight {cost!r}; "
                        "Dijkstra requires non-negative weights"
                    )
                if settled[v]:
                    continue
                candidate = d + cost
                if candidate < dist[v]:
                    if dist[v] == inf:
                        reached.append(v)
                    dist[v] = candidate
                    prev[v] = u
                    heappush(heap, (candidate, rank[v], v))
            if trace:
                order.append(u)
                steps.append(self._trace_step(order, reached, dist, prev))

        if not complete:
            # Reached-but-unsettled nodes hold tentative distances only.
            reached = [p for p in reached if settled[p]]
        uids = self._uids
        distances = {uids[p]: dist[p] for p in reached}
        predecessors = {
            uids[p]: uids[prev[p]] if prev[p] >= 0 else None for p in reached
        }
        return DijkstraResult(
            source=source,
            distances=distances,
            predecessors=predecessors,
            steps=steps,
            complete=complete,
            radius=inf if complete else radius,
        )

    def _trace_step(
        self, order: List[int], reached: List[int], dist: List[float], prev: List[int]
    ) -> DijkstraStep:
        """The tentative table after a settlement, paper-style: every node
        reached so far but the source, in first-relaxation order."""
        uids = self._uids
        distances: Dict[str, float] = {}
        paths: Dict[str, Tuple[str, ...]] = {}
        for p in reached[1:]:
            nodes: List[str] = []
            cursor = p
            while cursor >= 0:
                nodes.append(uids[cursor])
                cursor = prev[cursor]
            nodes.reverse()
            distances[uids[p]] = dist[p]
            paths[uids[p]] = tuple(nodes)
        return DijkstraStep(
            step=len(order),
            settled=tuple(uids[p] for p in order),
            distances=distances,
            paths=paths,
        )


def _all_valid(values: List[float]) -> bool:
    """True iff no weight is negative or NaN.

    ``min`` alone can step over a NaN; ``sum`` propagates it.
    """
    return not values or (min(values) >= 0.0 and sum(values) >= 0.0)
