"""Array-compiled routing core: CSR topology snapshots for the hot path.

:class:`TopologySnapshot` freezes a :class:`~repro.network.topology.Topology`
into flat int-indexed arrays — per-link endpoint/capacity/online arrays and a
CSR adjacency over node *positions* — and reuses them across decisions,
refreshing off the topology's ``state_version`` counter instead of re-walking
object adjacency per decision.  Two kernels run on top:

* :meth:`TopologySnapshot.weight_table_with_nv` — equations (1)-(4) over the
  link arrays, and
* :meth:`TopologySnapshot.dijkstra` — shortest paths over the CSR arrays,
  optionally goal-directed: given targets it stops at the nearest one and
  returns that prefix of the full tree.

Correctness contract — **bit-for-bit**: every table, NV map and Dijkstra
result must equal the python path
(:func:`repro.core.lvn.weight_table_with_nv`,
:func:`repro.network.routing.dijkstra.dijkstra`) down to the last ulp *and*
down to dict insertion order.  The rules that enforce it:

* The kernel executes the python path's scalar operations in the python
  path's order: NV segment sums accumulate strictly left-to-right in
  ``links_at`` order, exactly like the python ``sum()``.
* Dijkstra's heap orders by ``(distance, uid-rank)`` where the rank is the
  node's index in sorted-uid order — the same total order as the python
  path's ``(distance, uid)`` string comparison — and relaxation stays
  strict, so settlement order and the predecessor tree are untouched.
  A goal-directed run is the same loop cut short, so its result is the
  full run's restricted to the nodes it settled.

Everything here is plain python lists — the standard library only.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError, RoutingError, TopologyError
from repro.network.link import Link
from repro.network.routing.dijkstra import DijkstraResult
from repro.network.topology import Topology

#: The paper's suggested normalization constant (eq. 4); mirrors
#: ``repro.core.lvn.DEFAULT_NORMALIZATION_CONSTANT`` without importing the
#: core package from the network layer.
_DEFAULT_K = 10.0


class CompiledWeightTable(dict):
    """A weight table that also carries its values as a flat link array.

    Behaves exactly like the plain ``Dict[str, float]`` the python path
    returns (same keys, same insertion order, same values), but keeps the
    per-link value list aligned with the snapshot's link order so
    :meth:`TopologySnapshot.dijkstra` can skip the per-link dict lookups.
    ``structure_token`` guards against reusing the array after the snapshot
    rebuilt its structure (the dict fallback still works then).
    """

    __slots__ = ("link_values", "structure_token", "__weakref__")


class TopologySnapshot:
    """Int-indexed CSR view of a topology, invalidated by version counters.

    Nodes are addressed by *position* (insertion order — the order
    ``topology.nodes()`` yields, which the python path's dicts follow) and
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
        # like the python path's (dist, uid) because rank is monotone in uid.
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
        # exact order the python path's NV sums and Dijkstra scans use.
        inc_off = [0]
        inc_link: List[int] = []
        inc_nbr: List[int] = []
        linkless_uid: Optional[str] = None
        for uid in uids:
            adjacent = topology.links_at(uid)
            if not adjacent and linkless_uid is None:
                linkless_uid = uid
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
        self._linkless_uid = linkless_uid
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
        denominators of eq. 1 — summed strictly left-to-right in
        ``links_at`` order, like the python ``sum()``), and Dijkstra's
        online-only edge lists (kept in ``links_at`` order so lazy weight
        validation fires in the python path's scan order).
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
    ) -> CompiledWeightTable:
        """The LVN table alone (mirrors :func:`repro.core.lvn.weight_table`)."""
        return self.weight_table_with_nv(used_of, normalization_constant, _nv=False)[0]

    def weight_table_with_nv(
        self,
        used_of: Optional[Callable[[Link], float]] = None,
        normalization_constant: float = _DEFAULT_K,
        _nv: bool = True,
    ) -> Tuple[CompiledWeightTable, Optional[Dict[str, float]]]:
        """Equations (1)-(4) over the arrays, bit-identical to the python path.

        Raises:
            ReproError: If a node has no adjacent links (matching
                :func:`repro.core.lvn.node_validation` — the first such node
                in insertion order), or the normalization constant is not
                positive.  A node whose links are all *offline* gets NV 0.0
                in both paths (the shared degenerate-topology rule).
        """
        self.refresh()
        if self._linkless_uid is not None:
            raise ReproError(
                f"node {self._linkless_uid!r} has no adjacent links; NV undefined"
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

        nv_vals, weights = self._kernel_list(used_vals, normalization_constant)
        table = CompiledWeightTable(zip(self._link_names, weights))
        table.link_values = weights
        table.structure_token = self._token
        return table, dict(zip(self._uids, nv_vals)) if _nv else None

    def _kernel_list(
        self, used_vals: List[float], k: float
    ) -> Tuple[List[float], List[float]]:
        nv_vals = [0.0] * self._node_count
        for p, segment in enumerate(self._nv_links):
            total_cap = self._nv_cap[p]
            if total_cap > 0.0:
                total_used = 0.0
                for i in segment:
                    total_used += used_vals[i]
                nv_vals[p] = total_used / total_cap
        lv = self._lv_values(k)
        weights = [
            (nv_vals[a] if nv_vals[a] >= nv_vals[b] else nv_vals[b]) + (u / c) * v
            for a, b, u, c, v in zip(
                self._a_pos, self._b_pos, used_vals, self._cap, lv
            )
        ]
        return nv_vals, weights

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
        self, source: str, weights: Dict[str, float], targets: Iterable[str] = ()
    ) -> DijkstraResult:
        """Shortest paths from ``source``, bit-identical to the python path.

        Without ``targets``: the full single-source tree — same determinism
        contract, error messages and dict insertion order as
        :func:`repro.network.routing.dijkstra.dijkstra` (trace mode is not
        supported here; the VRA falls back to the python path for it).

        With ``targets`` (the VRA passes the available holders) the search
        stops once the nearest target is settled and the heap top is
        *strictly* farther — every node tying with it is drained first —
        and returns that prefix of the full tree (``complete`` False,
        ``radius`` the nearest target's distance; see
        :class:`~repro.network.routing.dijkstra.DijkstraResult`).  Unknown
        or unreachable targets never stop it.  A table holding a negative
        or NaN weight anywhere is searched in full, so the lazy scan raises
        the python path's ``RoutingError`` for the python path's link even
        when that link lies beyond the stopping radius.
        """
        self.refresh()
        pos_of = self._pos_of
        pos = pos_of.get(source)
        if pos is None:
            # Checked before weight resolution so an unknown source raises
            # the python path's TopologyError even with stale/empty weights.
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
            # Offline links are already filtered out of the edge lists —
            # before validation, matching the python path's lazy scan.
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
            complete=complete,
            radius=inf if complete else radius,
        )


def _all_valid(values: List[float]) -> bool:
    """True iff no weight is negative or NaN.

    ``min`` alone can step over a NaN; ``sum`` propagates it.
    """
    return not values or (min(values) >= 0.0 and sum(values) >= 0.0)
