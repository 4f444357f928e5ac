"""Outside-in tracing for the perf ledger's traced run.

Nothing under ``src/`` knows about this: spans are recorded from this
file only, by wrapping calls into each layer's public entry points.

* Event callbacks: ``Simulator.schedule`` / ``schedule_at`` /
  ``schedule_many`` are wrapped on the instance, so every scheduled
  callback is timed once and attributed to a layer by the family of its
  event name (``delay:session:...`` is a session resume, ``snmp:tick`` an
  SNMP round, ...).
* Entry points: the :data:`PROBES` table names public methods and
  functions by dotted path; each is wrapped where it lives (on the service's
  own objects, or on the class/module for objects the service keeps
  private).  An entry whose module or attribute is gone is skipped, and a
  layer left with no probe at all reports ``null`` / ``"absent": true``.

A span is (probe, start, end, parent), kept in four flat arrays for the
whole run and reduced afterwards: a layer's self time is its spans'
duration minus the part their child spans cover, net of the per-span cost
measured on a no-op (:meth:`Tracer.calibrate`).  Counters are not traced;
:func:`counters` reads them from public stats after the run, traced or not.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (layer, group, root, dotted path).  ``root`` says where the path starts:
# the service, each of its servers, the workload (its telemetry streamer),
# or an importable ``module:attr.path``.  ``group`` names the sub-metric the
# probe feeds (``<group>_calls`` / ``<group>_self_s``) when a layer
# reports more than its totals.
PROBES: List[Tuple[str, str, str, str]] = [
    ("core.service", "decide", "service", "decide"),
    ("core.vra", "decide", "service", "vra.decide"),
    ("network.flows", "reserve", "service", "flows.reserve"),
    ("network.flows", "release", "service", "flows.release"),
    ("network.flows", "bottleneck", "service", "flows.bottleneck_mbps"),
    ("network.routing.cache", "sync", "service", "vra.cache.sync"),
    ("network.routing.cache", "weights", "service", "vra.cache.weights"),
    ("network.routing.cache", "tree", "service", "vra.cache.tree"),
    ("network.routing.decision_cache", "get", "service", "vra.decision_cache.get"),
    ("network.routing.decision_cache", "put", "service", "vra.decision_cache.put"),
    ("network.routing.decision_cache", "apply", "service", "vra.decision_cache.apply"),
    ("core.admission_queue", "offer", "service", "admission_queue.offer"),
    ("placement", "on_request", "servers", "policy.on_request"),
    ("database", "update_link_stats", "service", "database.update_link_stats"),
    ("network.compiled", "dijkstra", "import", "repro.network.compiled:TopologySnapshot.dijkstra"),
    ("network.compiled", "lvn", "import", "repro.network.compiled:TopologySnapshot.weight_table"),
    ("network.compiled", "lvn", "import", "repro.network.compiled:TopologySnapshot.weight_table_with_nv"),
    ("network.compiled", "routing_state", "import", "repro.network.compiled:TopologySnapshot.routing_state"),
    ("core.lvn_delta", "patch", "import", "repro.core.lvn_delta:IncrementalLvnTable.patch"),
    ("core.lvn_delta", "rebuild", "import", "repro.core.lvn_delta:IncrementalLvnTable.rebuild"),
    # The reference path; its callers bind the functions by name at import,
    # so each importing module's binding is a probe of its own.
    ("core.lvn", "weight_table", "import", "repro.core.lvn:weight_table"),
    ("core.lvn", "weight_table", "import", "repro.core.lvn:weight_table_with_nv"),
    ("core.lvn", "weight_table", "import", "repro.core.vra:weight_table"),
    ("core.lvn", "weight_table", "import", "repro.core.lvn_delta:weight_table_with_nv"),
    ("network.routing.dijkstra", "dijkstra", "import", "repro.core.vra:dijkstra"),
    ("network.routing.dijkstra", "dijkstra", "import", "repro.network.routing.dijkstra:dijkstra"),
    ("resilience.supervisor", "adopt", "service", "supervisor.adopt"),
    ("resilience.supervisor", "track", "service", "supervisor.track"),
    ("resilience.supervisor", "untrack", "service", "supervisor.untrack"),
    ("resilience.supervisor", "discard", "service", "supervisor.discard"),
    ("resilience.supervisor", "on_fault", "service", "supervisor.on_server_state"),
    ("resilience.supervisor", "on_fault", "service", "supervisor.on_link_state"),
    ("resilience.supervisor", "on_fault", "service", "supervisor.on_disk_failure"),
    ("resilience.supervisor", "holder_exists", "service", "supervisor.holder_exists"),
    ("resilience.supervisor", "note", "service", "supervisor.note_failover"),
    ("resilience.supervisor", "note", "service", "supervisor.note_failed"),
    ("resilience.breaker", "filter", "service", "breakers.filter_servers"),
    ("resilience.breaker", "link_open", "service", "breakers.link_open"),
    ("resilience.breaker", "failure", "service", "breakers.server_failure"),
    ("resilience.breaker", "failure", "service", "breakers.link_failure"),
    ("resilience.breaker", "success", "service", "breakers.path_success"),
    ("resilience.staleness", "refresh", "service", "staleness_guard.refresh"),
    ("resilience.staleness", "adjust", "service", "staleness_guard.adjusted_used"),
    ("obs.sink", "write", "workload", "streamer.sink.write"),
    ("obs.sink", "write", "workload", "streamer.sink.write_manifest"),
    ("obs.sink", "write", "workload", "streamer.sink.write_footer"),
    ("obs.sink", "close", "workload", "streamer.sink.close"),
    ("obs.sink", "finish", "workload", "streamer.finish"),
]

# Event-name family (the text before the first ':') -> (layer, group).
FAMILIES: Dict[str, Tuple[str, str]] = {
    "start": ("core.session", "resume"),
    "delay": ("core.session", "resume"),
    "poke": ("core.session", "resume"),
    "signal": ("core.session", "resume"),
    "request": ("core.service", "submit"),
    "snmp": ("snmp.collector", "round"),
    "fault": ("faults.injector", "apply"),
    "recover": ("faults.injector", "apply"),
    "breaker": ("resilience.breaker", "probe"),
    "staleness-guard": ("resilience.staleness", "tick"),
    "telemetry": ("obs.sampler", "sample"),
    # Inputs the benchmark drives inside the timed region.
    "table2-replay": ("workload.driver", "background"),
    "churn": ("workload.driver", "background"),
}

SCHEDULE = ("sim.engine", "schedule")
LOOP = ("sim.engine", "loop")
REGION = ("workload.driver", "region")
UNATTRIBUTED = ("trace", "unattributed")

_MISSING = object()

LAYERS = sorted(
    {p[0] for p in PROBES} | {f[0] for f in FAMILIES.values()} | {"sim.engine"}
)


def _walk(obj, path: str):
    """Follow a dotted path; returns (owner, attr, value).  A None on the
    way means the layer is configured off: (None, attr, None)."""
    *heads, attr = path.split(".")
    for head in heads:
        obj = getattr(obj, head)
        if obj is None:
            return None, attr, None
    return obj, attr, getattr(obj, attr)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.probe = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Recording switch (see :meth:`region`); wrappers call straight
        #: through while False.
        self.on = False
        self.raised: Dict[int, int] = {}
        self.keys: List[Tuple[str, str]] = []  # probe id -> (layer, group)
        self.paths: List[str] = []  # probe id -> what was wrapped
        self._ids: Dict[Tuple[str, str, str], int] = {}
        self._undo: list = []
        self._resolved: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self._current = -1
        self._in_scheduler = False
        self.span_cost_s = (0.0, 0.0)  # (inside the span, outside it)

        probes, parents, starts, ends = self.probe, self.parent, self.start, self.end
        raised, clock = self.raised, time.perf_counter

        def span_call(pid, fn, *args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(ends)
            previous = self._current
            probes.append(pid)
            parents.append(previous)
            ends.append(0.0)
            self._current = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[pid] = raised.get(pid, 0) + 1
                raise
            finally:
                ends[index] = clock()
                self._current = previous

        self.span_call = span_call
        self._family_ids = {
            family: self._pid(key, f"event {family}:*") for family, key in FAMILIES.items()
        }
        self._unattributed = self._pid(UNATTRIBUTED, "event <other>")
        self._region = self._pid(REGION, "timed region")

    # ------------------------------------------------------------------ #
    # installing and removing the wrappers
    # ------------------------------------------------------------------ #
    def _pid(self, key: Tuple[str, str], path: str) -> int:
        ident = (*key, path)
        if ident not in self._ids:
            self._ids[ident] = len(self.keys)
            self.keys.append(key)
            self.paths.append(path)
        return self._ids[ident]

    def wrap(self, fn: Callable, key: Tuple[str, str], path: str) -> Callable:
        """``fn`` recorded as a span of ``key`` on every call."""
        pid = self._pid(key, path)
        probes, parents, starts, ends = self.probe, self.parent, self.start, self.end
        raised, clock = self.raised, time.perf_counter

        # span_call's body again rather than a call to it: the extra frame
        # and argument repacking would add a third to every span's cost.
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(ends)
            previous = self._current
            probes.append(pid)
            parents.append(previous)
            ends.append(0.0)
            self._current = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[pid] = raised.get(pid, 0) + 1
                raise
            finally:
                ends[index] = clock()
                self._current = previous

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        # An instance keeps no attribute of its own for a method, so undoing
        # means deleting ours; a class or module gets its original back.
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def region(self, fn: Callable):
        """Run ``fn`` as the root span of one timed segment; spans are
        recorded only inside a region."""
        self.on = True
        try:
            return self.span_call(self._region, fn)
        finally:
            self.on = False

    def install(self, workload) -> None:
        """Wrap the simulator and every resolvable probe of ``workload``."""
        service = workload.service
        sim = service.sim
        for name in ("schedule", "schedule_at", "schedule_many"):
            original = getattr(sim, name, None)
            if original is not None:
                self._replace(sim, name, self._scheduler(original, name))
        self._replace(sim, "run", self.wrap(sim.run, LOOP, "sim.run"))
        self._resolved["sim.engine"] += 1
        for layer, _ in FAMILIES.values():
            self._resolved[layer] += 1
        statistics = getattr(service, "statistics", None)
        for layer, group, root, path in PROBES:
            if root == "import":
                module_name, path = path.split(":")
                try:
                    owners = [importlib.import_module(module_name)]
                except ImportError:
                    continue
            elif root == "servers":
                owners = list(service.servers.values())
            else:
                owners = [service if root == "service" else workload]
            for start in owners:
                try:
                    owner, attr, target = _walk(start, path)
                except AttributeError:
                    continue
                self._resolved[layer] += 1
                if owner is None:
                    continue
                traced = self.wrap(target, (layer, group), path)
                self._replace(owner, attr, traced)
                # A listener bound before install keeps the unwrapped method.
                if getattr(statistics, "on_round", None) == target:
                    self._replace(statistics, "on_round", traced)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def absent_layers(self) -> List[str]:
        """Layers none of whose probes could be resolved on this commit."""
        return sorted(layer for layer, count in self._resolved.items() if not count)

    def _scheduler(self, original: Callable, name: str) -> Callable:
        """Wrapper for one ``Simulator.schedule*`` method: records the call
        and swaps each callback for its traced form."""
        pid = self._pid(SCHEDULE, f"sim.{name}")
        span_call, family_ids, other = self.span_call, self._family_ids, self._unattributed
        many = name == "schedule_many"

        def event_pid(event_name: str) -> int:
            return family_ids.get(event_name.partition(":")[0], other)

        def scheduler(first, *rest, **kwargs):
            if self._in_scheduler:
                # schedule() delegating to schedule_at(): already rewritten.
                return original(first, *rest, **kwargs)
            self._in_scheduler = True
            try:
                if many:
                    first = [
                        (
                            entry[0],
                            span_call,
                            (event_pid(entry[3] if len(entry) > 3 else ""), entry[1])
                            + tuple(entry[2] if len(entry) > 2 else ()),
                            *entry[3:4],
                        )
                        for entry in first
                    ]
                    return span_call(pid, original, first, *rest, **kwargs)
                return span_call(
                    pid, original, first, span_call,
                    event_pid(kwargs.get("name", "")), *rest, **kwargs,
                )
            finally:
                self._in_scheduler = False

        return scheduler

    # ------------------------------------------------------------------ #
    # per-span cost
    # ------------------------------------------------------------------ #
    def calibrate(self, calls: int = 100_000, trials: int = 3) -> None:
        """Measure what one span costs, on a no-op: the part that lands
        inside the span (charged to the callee) and the part outside it
        (charged to the caller).  Keeps the cheapest of ``trials``."""

        def noop(value, name=""):  # a typical call shape: both kinds of argument
            return None

        traced = self.wrap(noop, UNATTRIBUTED, "calibration no-op")
        clock = time.perf_counter
        best = None
        was_on, self.on = self.on, True
        try:
            for _ in range(trials):
                mark = len(self.end)
                t0 = clock()
                for _ in range(calls):
                    noop(1, name="x")
                t1 = clock()
                for _ in range(calls):
                    traced(1, name="x")
                t2 = clock()
                inside = sum(
                    self.end[i] - self.start[i] for i in range(mark, mark + calls)
                ) / calls
                total = max(((t2 - t1) - (t1 - t0)) / calls, inside)
                for column in (self.probe, self.parent, self.start, self.end):
                    del column[mark:]
                if best is None or total < sum(best):
                    best = (inside, total - inside)
        finally:
            self.on = was_on
        self.span_cost_s = best

    # ------------------------------------------------------------------ #
    # reduction
    # ------------------------------------------------------------------ #
    def summary(self, tracing_cost_s: Optional[float] = None) -> Dict[str, object]:
        """Reduce the spans to per-layer and per-group calls and self time.

        ``calls`` counts entries into a layer (or group) from outside it,
        so ``weight_table`` calling ``weight_table_with_nv`` is one call.
        Self time is net of the span cost and never negative; what was
        subtracted is summed in ``overhead_s``.

        Args:
            tracing_cost_s: Traced minus untraced wall time of the same
                workload, when known.  A span costs two to three times more
                inside a real run than in the calibration loop (cold
                caches), so the calibrated cost is scaled up until the
                spans account for this difference; the calibration then
                only sets how the cost splits between callee and caller.
        """
        probes, parents, starts, ends = self.probe, self.parent, self.start, self.end
        keys = self.keys
        count = len(keys)
        raw = [0.0] * count
        spans = [0] * count
        children = [0] * count
        entries = [0] * count  # spans whose parent is in another group
        layer_entries: Dict[str, int] = {}
        root_s = 0.0
        # Inclusive durations, kept only where a metric is built from them.
        durations: Dict[Tuple[str, str], List[float]] = {
            ("core.service", "decide"): [], ("obs.sink", "finish"): [],
        }
        for i in range(len(ends)):
            pid = probes[i]
            duration = ends[i] - starts[i]
            raw[pid] += duration
            spans[pid] += 1
            up = parents[i]
            if up < 0:
                root_s += duration
                parent_key = None
            else:
                parent_pid = probes[up]
                raw[parent_pid] -= duration
                children[parent_pid] += 1
                parent_key = keys[parent_pid]
            key = keys[pid]
            if parent_key != key:
                entries[pid] += 1
                if parent_key is None or parent_key[0] != key[0]:
                    layer_entries[key[0]] = layer_entries.get(key[0], 0) + 1
            if key in durations:
                durations[key].append(duration)
        inside, outside = self.span_cost_s
        calibrated_s = sum(spans) * inside + sum(children) * outside
        if tracing_cost_s is not None and calibrated_s > 0.0:
            factor = max(tracing_cost_s, 0.0) / calibrated_s
            inside, outside = inside * factor, outside * factor
        layers: Dict[str, Dict[str, float]] = {}
        groups: Dict[Tuple[str, str], Dict[str, float]] = {}
        overhead_s = 0.0
        for pid, key in enumerate(keys):
            net = max(raw[pid] - spans[pid] * inside - children[pid] * outside, 0.0)
            overhead_s += raw[pid] - net
            layer = layers.setdefault(key[0], {"calls": 0, "self_s": 0.0})
            layer["self_s"] += net
            group = groups.setdefault(key, {"calls": 0, "spans": 0, "self_s": 0.0, "raised": 0})
            group["calls"] += entries[pid]
            group["spans"] += spans[pid]
            group["self_s"] += net
            group["raised"] += self.raised.get(pid, 0)
        for layer, calls in layer_entries.items():
            layers[layer]["calls"] = calls
        return {
            "layers": layers,
            "groups": groups,
            "durations": {key: sorted(max(d - inside, 0.0) for d in values)
                          for key, values in durations.items()},
            "root_s": root_s,
            "overhead_s": overhead_s,
            "spans": len(ends),
            "span_cost_s": inside + outside,
        }

    def write_spans(self, path: str) -> None:
        """Dump every span as CSV: layer, group, probe, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,layer,group,probe,start_s,end_s,parent\n")
            origin = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.end)):
                layer, group = self.keys[self.probe[i]]
                handle.write(
                    f"{i},{layer},{group},{self.paths[self.probe[i]]},"
                    f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f},{self.parent[i]}\n"
                )


# ---------------------------------------------------------------------- #
# counters: read from public stats after any run, traced or not
# ---------------------------------------------------------------------- #
def _get(obj, path: str, default=0):
    """``obj.a.b.c`` or ``default`` when a link is missing or None."""
    for name in path.split("."):
        obj = getattr(obj, name, None)
        if obj is None:
            return default
    return obj


def _ratio(hits, misses) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def counters(workload, sim_out: Dict[str, object]) -> Dict[str, float]:
    """Counter-type per-layer metrics.  All are functions of the simulated
    run alone, so they repeat exactly for a seed."""
    service = workload.service
    sim = service.sim
    cache = _get(service, "vra.cache_stats", None)
    memo = _get(service, "vra.decision_cache_stats", None)
    queue = _get(service, "admission_queue.stats", None)
    policies = [p for p in (_get(s, "policy", None) for s in service.servers.values()) if p]
    modules = _get(service, "statistics.modules", [])
    sink = _get(workload, "streamer.sink", None)
    injector = workload.injector
    return {
        "sim.engine.events_fired": _get(sim, "events_fired"),
        "sim.engine.compactions": _get(sim, "compactions"),
        "core.vra.decide_calls": _get(service, "vra.decision_count"),
        "core.vra.local_serve_ratio": sim_out.get("local_serve_ratio", 0.0),
        "network.routing.cache.tree_hit_ratio": _ratio(_get(cache, "tree_hits"), _get(cache, "tree_misses")),
        "network.routing.cache.weight_hit_ratio": _ratio(_get(cache, "weight_hits"), _get(cache, "weight_misses")),
        "network.routing.cache.partial_invalidations": _get(cache, "partial_invalidations"),
        "network.routing.cache.full_invalidations": _get(cache, "full_invalidations"),
        "network.routing.cache.trees_rerooted": _get(cache, "trees_rerooted"),
        "network.routing.cache.trees_repaired": _get(cache, "trees_repaired"),
        "network.routing.cache.dirty_links": _get(cache, "dirty_links"),
        "network.routing.decision_cache.hit_ratio": _ratio(_get(memo, "hits"), _get(memo, "misses")),
        "network.routing.decision_cache.evictions": _get(memo, "evictions"),
        "network.routing.decision_cache.dropped": _get(memo, "decisions_dropped"),
        "core.admission_queue.shed": _get(queue, "shed"),
        "core.admission_queue.delayed": _get(queue, "delayed"),
        "core.admission_queue.max_depth": _get(queue, "max_depth"),
        "core.admission_queue.wait_p99_sim_s": sim_out.get("admission_wait_p99_sim_s", 0.0),
        "placement.stores": sum(
            count
            for policy in policies
            for action, count in _get(policy, "action_counts", {}).items()
            if action in ("stored", "replaced", "prefix_stored")
        ),
        "placement.evictions": sum(_get(p, "eviction_count") for p in policies),
        "snmp.collector.changed_samples": sum(_get(m, "changed_samples") for m in modules),
        "snmp.collector.blackout_skips": _get(service, "statistics.blackout_skips"),
        "faults.injector.injected": sum(_get(injector, "injected_by_kind", {}).values()),
        "faults.injector.recovered": sum(_get(injector, "recovered_by_kind", {}).values()),
        "resilience.supervisor.preemptions": _get(service, "supervisor.preemption_count"),
        "resilience.supervisor.failovers": _get(service, "supervisor.failover_count"),
        "resilience.breaker.trips": _get(service, "breakers.trip_count"),
        "resilience.staleness.transitions": _get(service, "staleness_guard.transition_count"),
        "obs.sink.rows_written": _get(sink, "written"),
    }


def layer_metrics(
    tracer: Tracer,
    workload,
    sim_out: Dict[str, object],
    sessions: int,
    traced_wall_s: float,
    untraced_wall_s: Optional[float],
) -> Dict[str, Optional[float]]:
    """Every ``<layer>.<metric>`` of one traced run; ``None`` marks a metric
    of a layer that is absent from this commit.  ``untraced_wall_s`` is the
    same workload's wall time with tracing off (median of the untraced
    runs), when the caller has it."""
    summary = tracer.summary(
        traced_wall_s - untraced_wall_s if untraced_wall_s else None
    )
    layers, groups = summary["layers"], summary["groups"]

    def group(layer: str, name: str, field: str) -> float:
        return groups.get((layer, name), {}).get(field, 0)

    out: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        totals = layers.get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.calls"] = totals["calls"]
        out[f"{layer}.self_s"] = totals["self_s"]
    for layer, name, metric in (
        ("sim.engine", "schedule", "schedule"),
        ("core.service", "submit", "submit"),
        ("core.service", "decide", "decide"),
        ("network.compiled", "lvn", "lvn"),
        ("network.compiled", "dijkstra", "dijkstra"),
    ):
        out[f"{layer}.{metric}_calls"] = group(layer, name, "calls")
        out[f"{layer}.{metric}_self_s"] = group(layer, name, "self_s")
    out["sim.engine.loop_self_s"] = group("sim.engine", "loop", "self_s")
    out["core.lvn_delta.patch_calls"] = group("core.lvn_delta", "patch", "calls")
    out["core.admission_queue.offer_calls"] = group("core.admission_queue", "offer", "calls")
    out["placement.on_request_calls"] = group("placement", "on_request", "calls")
    out["database.update_link_stats_calls"] = group("database", "update_link_stats", "calls")
    out["network.flows.reserve_failed"] = group("network.flows", "reserve", "raised")
    out["core.session.resumes"] = group("core.session", "resume", "spans")
    out["core.session.events_per_session"] = (
        out["core.session.resumes"] / sessions if sessions else 0.0
    )
    out["obs.sink.finish_s"] = sum(summary["durations"][("obs.sink", "finish")])
    out.update(counters(workload, sim_out))
    # Not a counter in the exact sense: rows carry host latencies, so the
    # byte count moves by a few digits from run to run.
    out["obs.sink.bytes"] = sum(
        os.path.getsize(part)
        for part in _get(workload, "streamer.sink.part_paths", [])
        if os.path.exists(part)
    )
    out["snmp.collector.rounds"] = (
        group("snmp.collector", "round", "spans") - out["snmp.collector.blackout_skips"]
    )
    events = out["sim.engine.events_fired"]
    out["sim.engine.host_us_per_event"] = (
        out["sim.engine.self_s"] / events * 1e6 if events else 0.0
    )
    dijkstra_calls = out["network.compiled.dijkstra_calls"]
    out["network.compiled.dijkstra_us_per_call"] = (
        out["network.compiled.dijkstra_self_s"] / dijkstra_calls * 1e6 if dijkstra_calls else 0.0
    )
    decide = summary["durations"][("core.service", "decide")]
    for label, q in (("p50", 0.50), ("p99", 0.99)):
        out[f"core.service.decide_{label}_us"] = (
            decide[min(len(decide) - 1, int(q * len(decide)))] * 1e6 if decide else 0.0
        )
    for layer in tracer.absent_layers():
        for name in out:
            if name.startswith(layer + "."):
                out[name] = None
    unattributed = layers.get("trace", {"self_s": 0.0})["self_s"]
    out["trace.unattributed_s"] = max(traced_wall_s - summary["root_s"], 0.0) + unattributed
    out["trace.overhead_s"] = summary["overhead_s"]
    out["trace.overhead_ratio"] = (
        traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0
    )
    out["trace.spans"] = summary["spans"]
    out["trace.span_cost_us"] = summary["span_cost_s"] * 1e6
    return out
