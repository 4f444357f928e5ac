"""Reachability census: which ``src/`` functions do the user paths reach?

Runs every user path in this process under one :mod:`cProfile` profiler:

* the CLI matrix (:data:`CLI_MATRIX`, every subcommand and the options
  that switch code on);
* every ``examples/*.py`` script, as ``__main__``;
* each perf-ledger workload as ``benchmarks/ledger/run.py --child trace``
  runs it, with the ledger's ``tracing.Tracer`` installed and
  ``tracing.counters`` read, at :data:`LEDGER_SCALE` of the nominal size.

A function of ``src/repro`` (every ``def``, methods and nested functions
included) is *reached* when the profiler saw it called at least once.  A
function whose body does nothing (a docstring, ``pass``, ``...`` or
``raise NotImplementedError``) declares an interface or a no-op default;
it has no code to reach and is not counted.  Every unreached function must
be deleted or carry one named reason in :data:`REASONS`; ``--check`` exits
1 when one does not.

Usage::

    python3 benchmarks/census.py            # the unreached table by file
    python3 benchmarks/census.py --list     # ... and every unreached function
    python3 benchmarks/census.py --check    # exit 1 on an unreasoned function

Standard library only; about 35 s on one Intel Xeon core.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LEDGER = ROOT / "benchmarks" / "ledger"
EXAMPLES = ROOT / "examples"

#: Reason kinds a :data:`REASONS` entry may use.
KINDS = {
    "paper": "the paper's own API (cite the PAPER.md section)",
    "fault": "error, validation or fault handler: safety code",
    "reference": "an oracle that tests compare the production path against",
    "bench": "regenerates an EXPERIMENTS.md row from benchmarks/",
    "item5": "strip-level caching, the paper's future work (ROADMAP item 5)",
    "deferred": "unreached, and its removal is a later change",
}

#: Why an unreached function stays: (kind, why, keys).  A key is a file
#: under ``src/repro`` (every function in it), ``file::Class`` (every
#: method) or ``file::qualified.name`` (the function and the functions
#: nested in it).  ``tests/test_census_reasons.py`` checks every key names
#: code that exists and every kind is one of :data:`KINDS`.
REASONS: List[Tuple[str, str, List[str]]] = [
    # -- paper: the paper's own API, kept and tested though no path calls it
    ("paper", "the limited-access database module: admin reads and writes go "
     "through a handle (paper: the database's full-/limited-access split)",
     ["database/access.py::DatabaseHandle"]),
    ("paper", "the full-access database view behind DatabaseHandle: catalogue "
     "browsing, search and server configuration (paper: the database module)",
     ["database/store.py::ServiceDatabase.full_access",
      "database/store.py::ServiceDatabase.list_titles",
      "database/store.py::ServiceDatabase.search_titles",
      "database/store.py::ServiceDatabase.has_title",
      "database/store.py::ServiceDatabase.server_title_ids",
      "database/store.py::ServiceDatabase.server_uids",
      "database/store.py::ServiceDatabase.link_entries",
      "database/store.py::ServiceDatabase.update_server_config"]),
    ("paper", "the SNMP module's write of one link sample into the limited-access "
     "database (paper: statistics module); collectors batch it per round",
     ["database/store.py::ServiceDatabase.update_link_stats"]),
    ("paper", "equation (1) for one link; weight_table computes the whole column",
     ["core/lvn.py::link_validation_number"]),
    ("paper", "Figure 3 striping: p = ceil(size / c) clusters laid cyclically "
     "over the disks, and which disk holds each",
     ["storage/striping.py::StripingLayout.disk_of",
      "storage/striping.py::StripingLayout.clusters_on_disk",
      "storage/striping.py::StripingLayout.total_mb",
      "storage/video.py::VideoTitle.cluster_count"]),
    ("paper", "Figure 2 points: the DMA's request count per title",
     ["placement/base.py::PlacementPolicy.points_of"]),
    ("paper", "Tables 4-5 print the search path home-to-server; the video data "
     "walks it the other way",
     ["core/vra.py::VraDecision.download_route",
      "network/routing/paths.py::Path.reversed"]),
    # -- fault: error, validation and fault handlers
    ("fault", "builds the SchedulingError of a bad delay or event time",
     ["sim/engine.py::_bad_delay", "sim/engine.py::Simulator._bad_time"]),
    ("fault", "sweeps cancelled events once they crowd the heap",
     ["sim/engine.py::Simulator._compact"]),
    ("fault", "a bad yield value ends its process, not the event loop",
     ["sim/process.py::Process._fail"]),
    ("fault", "starts a new part file when one reaches its row cap",
     ["obs/sink.py::FileTelemetrySink._rotate"]),
    ("fault", "spells a non-finite sample (NaN, Infinity) as json does; a "
     "finite one takes the sample writer's repr path",
     ["obs/sink.py::_json_float"]),
    ("fault", "a session is about to fail with no online full holder left",
     ["resilience/supervisor.py::SessionSupervisor.note_failed"]),
    ("fault", "a deferred download failed: the partial bytes and any stale "
     "advertisement go",
     ["server/video_server.py::VideoServer.abort_download"]),
    # -- reference: oracles the tests compare the production path against
    ("reference", "the single-step engine the engine-equivalence properties "
     "compare run() against",
     ["sim/engine.py::Simulator.step", "sim/engine.py::Simulator.peek",
      "sim/engine.py::Simulator._drop_cancelled", "sim/engine.py::Simulator.stop",
      "sim/engine.py::EventHandle.event", "sim/engine.py::EventHandle.cancelled",
      "sim/engine.py::EventHandle.fired", "sim/events.py::Event"]),
    ("reference", "processes that wait on a signal, interrupt or poke: the "
     "engine-equivalence properties and the polling-session oracle drive them",
     ["sim/process.py::Signal", "sim/process.py::WaitSignal",
      "sim/process.py::Process.finished", "sim/process.py::Process.check",
      "sim/process.py::Process.interrupt", "sim/process.py::Process.poke"]),
    ("reference", "the Zipf probabilities the sampler's frequencies are tested against",
     ["workload/zipf.py::ZipfSampler.probability_of_rank"]),
    ("reference", "the full search a compiled prefix search must agree with "
     "(DESIGN.md 5b.12), and the path helpers the routing properties compare",
     ["core/vra.py::VraDecision.dijkstra_result",
      "network/routing/dijkstra.py::DijkstraResult.node_path",
      "network/routing/paths.py::Path.source",
      "network/routing/paths.py::Path.destination"]),
    ("reference", "counts a memo replay as the VRA call it stands for; the "
     "memo-parity properties compare every vra.* instrument (DESIGN.md 5b.14)",
     ["core/vra.py::VirtualRoutingAlgorithm.count_replayed"]),
    ("reference", "the session properties assert no session failed while this "
     "was True",
     ["resilience/supervisor.py::SessionSupervisor.holder_online"]),
    ("reference", "exactly the condition under which reserve() refuses a rate; "
     "the flow properties and the polling-session oracle read it",
     ["network/flows.py::FlowManager.bottleneck_mbps",
      "network/flows.py::Flow.hop_count"]),
    ("reference", "input-clock counters the routing-cache and compiled-kernel "
     "properties compare between the memo and the reference path",
     ["network/link.py::Link.state_version", "network/link.py::Link.traffic_version",
      "server/video_server.py::VideoServer.state_version",
      "network/compiled.py::TopologySnapshot.structure_token"]),
    ("reference", "the both-ends SNMP oracle reads the poll period, the blackout "
     "state and one module's collection",
     ["snmp/collector.py::StatisticsService.period_s",
      "snmp/collector.py::StatisticsService.blacked_out",
      "snmp/collector.py::NodeStatisticsModule.agent",
      "snmp/collector.py::NodeStatisticsModule.collect",
      "sim/timers.py::PeriodicTask.period"]),
    # -- bench: regenerates an EXPERIMENTS.md row from benchmarks/
    ("bench", "the X3 centralised-service baseline (selection 'origin:<uid>')",
     ["baselines/selection.py::HomeOnlySelection"]),
    ("bench", "Tables 2-3 computed against printed: test_bench_table2/3 and the "
     "ledger's paper_table3_max_abs_err",
     ["experiments/casestudy.py::table2_deltas", "experiments/casestudy.py::table3_deltas",
      "experiments/casestudy.py::CellDelta"]),
    ("bench", "the DMA bench draws its request stream and reads the cached set",
     ["workload/zipf.py::ZipfSampler.sample_many",
      "placement/base.py::PlacementPolicy.cached_title_ids"]),
    # -- item5: strip-level caching, the paper's future work
    ("item5", "strip-level distributed caching (ROADMAP item 5)",
     ["extensions/strip_caching.py"]),
    # -- deferred: unreached; taking it out is a later change
    ("deferred", "VoDService.snapshot (TUTORIAL 8) and what only it reads",
     ["core/service.py::VoDService.snapshot",
      "core/service.py::VoDService.completed_sessions",
      "core/admission_queue.py::AdmissionQueue.snapshot",
      "core/admission_queue.py::AdmissionQueueStats.as_dict",
      "network/routing/cache.py::RoutingCacheStats.as_dict",
      "network/routing/cache.py::DecisionCacheStats.as_dict"]),
    ("deferred", "try_decide: deleting it drops resilience.degraded_decisions and "
     "245 rows of the pinned chaos stream",
     ["core/service.py::VoDService.try_decide", "core/service.py::DecideOutcome"]),
    ("deferred", "read only by its unit tests; it goes with them in the next "
     "census pass (ROADMAP item 15)",
     ["core/admission_queue.py::AdmissionQueue.finalize",
      "faults/injector.py::FaultInjector.active_faults",
      "faults/injector.py::FaultInjector.report",
      "faults/schedule.py::FaultSchedule.scripted",
      "faults/schedule.py::FaultSchedule.events",
      "faults/schedule.py::FaultSchedule.__eq__",
      "faults/schedule.py::FaultSchedule.__hash__",
      "database/store.py::ServiceDatabase.holder_fraction",
      "metrics/stats.py::stddev",
      "metrics/stats.py::confidence_interval_95",
      "metrics/stats.py::histogram",
      "network/flows.py::FlowManager.active_flows",
      "network/node.py::Node.__hash__",
      "network/node.py::Node.__eq__",
      "network/node.py::Node.__repr__",
      "network/routing/cache.py::RoutingCache.clear",
      "network/topology.py::Topology.degree",
      "network/topology.py::Topology.total_capacity_mbps",
      "obs/registry.py::Gauge.set",
      "obs/registry.py::MetricsRegistry.find",
      "obs/sampler.py::TelemetrySampler.stop",
      "obs/spans.py::SessionSpan.open",
      "obs/spans.py::SessionSpan.duration_s",
      "placement/base.py::PlacementPolicy.pin",
      "placement/base.py::PlacementPolicy.resident_ids",
      "resilience/breaker.py::BreakerBoard.server_state",
      "resilience/breaker.py::BreakerBoard.link_state",
      "resilience/staleness.py::StalenessGuard.stale_links",
      "resilience/staleness.py::StalenessGuard.is_stale",
      "resilience/supervisor.py::SessionSupervisor.tracked_count",
      "resilience/supervisor.py::SessionSupervisor.report",
      "server/video_server.py::VideoServer.pending_title_ids",
      "sim/rng.py::RngRegistry.names",
      "sim/timers.py::PeriodicTask.fire_count",
      "snmp/agent.py::SnmpAgent.link_names",
      "snmp/collector.py::StatisticsService.stop",
      "snmp/counters.py::OctetCounter.wraps",
      "storage/array.py::DiskArray.free_mb",
      "storage/array.py::DiskArray.disks",
      "storage/array.py::DiskArray.failed_disk_indices",
      "storage/array.py::DiskArray.video",
      "storage/array.py::DiskArray.layout",
      "storage/array.py::DiskArray.resident_cluster_count",
      "storage/array.py::DiskArray.has_segment",
      "storage/array.py::DiskArray.partial_title_ids",
      "storage/disk.py::Disk.cluster_count",
      "storage/disk.py::Disk.has_cluster",
      "storage/disk.py::Disk.title_ids",
      "workload/arrivals.py::PoissonArrivals.stream",
      "workload/arrivals.py::UniformArrivals",
      "workload/traces.py::Table2Replayer.stop",
      "workload/zipf.py::ZipfSampler.items"]),
]

#: CLI invocations, run as ``repro.cli.main(argv)``.  ``{tmp}`` is a
#: scratch directory; ``export-grnet`` runs before the topology reader.
CLI_MATRIX: List[List[str]] = [
    ["case-study"],
    ["experiment", "A"],
    ["lvn", "--time", "4pm", "--normalization-constant", "5"],
    ["export-grnet", "{tmp}/grnet.json", "--time", "8am"],
    ["simulate", "--requests-per-node", "2", "--seed", "7", "--report",
     "--topology", "{tmp}/grnet.json", "--telemetry-out", "{tmp}/sim.jsonl"],
    ["simulate", "--requests-per-node", "2", "--replay-table2", "--selection", "minhop",
     "--switching", "never", "--cache", "lru", "--admission-queue-capacity", "4"],
    ["simulate", "--requests-per-node", "2", "--selection", "random",
     "--switching", "period:2", "--cache", "dma-greedy"],
    ["simulate", "--requests-per-node", "2", "--selection", "static", "--cache", "nocache"],
    ["simulate", "--requests-per-node", "2", "--cache", "fullrep"],
    ["simulate", "--requests-per-node", "2", "--placement", "prefix"],
    ["simulate", "--requests-per-node", "2", "--placement", "partial"],
    ["placement", "--requests-per-node", "3", "--catalog-size", "4", "--check"],
    ["obs", "--requests-per-node", "3", "--timeline", "link.utilization"],
    ["obs", "--requests-per-node", "3", "--format", "jsonl", "--out", "{tmp}/obs.jsonl",
     "--trace-out", "{tmp}/trace.jsonl"],
    ["obs", "--requests-per-node", "2", "--format", "csv", "--out", "{tmp}/obs.csv"],
    ["obs", "--scenario", "flash-crowd", "--requests-per-node", "4"],
    ["chaos", "--duration-hours", "1", "--requests-per-node", "3", "--show-faults",
     "--telemetry-out", "{tmp}/chaos.csv"],
    ["chaos", "--duration-hours", "1", "--requests-per-node", "3", "--json", "--failover",
     "--breaker-threshold", "2", "--max-stats-age", "300", "--min-availability", "0.1",
     "--min-recovered", "0", "--max-p95-stall-s", "99999"],
    # The CI failover storm: breakers trip and probe, sessions fail over.
    ["chaos", "--seed", "11", "--duration-hours", "2", "--requests-per-node", "12",
     "--retry-attempts", "0", "--server-crash-rate", "6", "--link-flap-rate", "4",
     "--mean-fault-duration", "600", "--failover", "--breaker-threshold", "2",
     "--max-stats-age", "300", "--json"],
    ["sweep-cluster-size", "--jobs", "1"],
]

WORKLOADS = ("grnet_day", "backbone200_churn", "decision_burst", "chaos_storm")
#: Ledger run size as a share of the nominal one: enough for every layer
#: to run, small enough for the census to finish in seconds per workload.
LEDGER_SCALE = 0.02


# ---------------------------------------------------------------------- #
# the functions of src/repro
# ---------------------------------------------------------------------- #
class Function(NamedTuple):
    """One ``def`` under ``src/repro``: file, qualified name, line span."""

    path: str
    qualname: str
    first: int
    last: int

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def _does_nothing(node: ast.AST) -> bool:
    """Is the function body only a docstring, ``pass``, ``...`` or
    ``raise NotImplementedError``?"""
    for statement in node.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            exc = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def functions() -> List[Function]:
    """Every counted function of the package, from the AST.  ``first`` is
    the line a code object starts on (the first decorator's, if any)."""
    found: List[Function] = []

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _does_nothing(child):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found.append(Function(path, prefix + child.name, first, child.end_lineno))
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(PACKAGE).as_posix()
        visit(ast.parse(file.read_text(), str(file)), path, "")
    return found


def reason_for(function: Function):
    """The (kind, why) covering ``function``, or None."""
    parts = function.qualname.split(".")
    covering = {function.path} | {
        f"{function.path}::{'.'.join(parts[:end])}" for end in range(1, len(parts) + 1)
    }
    for kind, why, keys in REASONS:
        if covering.intersection(keys):
            return kind, why
    return None


# ---------------------------------------------------------------------- #
# the user paths
# ---------------------------------------------------------------------- #
def _quiet(body) -> float:
    """Run ``body`` with stdout and stderr swallowed; its wall time."""
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        body()
    return time.perf_counter() - started


def _cli_paths(tmp: str):
    from repro.cli import main

    for template in CLI_MATRIX:
        argv = [arg.replace("{tmp}", tmp) for arg in template]

        def run(argv=argv):
            code = main(argv)
            if code != 0:
                raise RuntimeError(f"repro {' '.join(argv)} exited {code}")

        yield "repro " + " ".join(template), run


def _example_paths():
    for script in sorted(EXAMPLES.glob("*.py")):
        yield f"examples/{script.name}", lambda script=script: runpy.run_path(
            str(script), run_name="__main__"
        )


def _ledger_paths():
    sys.path.insert(0, str(LEDGER))
    spec = importlib.util.spec_from_file_location("ledger_run", LEDGER / "run.py")
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    seconds = repr(ledger.NOMINAL_SECONDS * LEDGER_SCALE)
    for name in WORKLOADS:
        argv = ["--child", "trace", "--workload", name, "--seed", "42", "--seconds", seconds]
        yield f"ledger {name}", lambda argv=argv: ledger.main(argv)


def reached_code() -> set:
    """(file, first line) of every code object under ``src/repro`` that a
    user path called."""
    sys.path.insert(0, str(SRC))
    profiler = cProfile.Profile()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        for paths in (_cli_paths(tmp), _example_paths(), _ledger_paths()):
            for label, body in paths:
                profiler.enable()
                try:
                    wall = _quiet(body)
                finally:
                    profiler.disable()
                print(f"  {wall:6.1f} s  {label}", flush=True)
    package = str(PACKAGE) + os.sep
    reached = set()
    for entry in profiler.getstats():
        code = entry.code
        if not isinstance(code, str) and code.co_filename.startswith(package):
            path = Path(code.co_filename).relative_to(PACKAGE).as_posix()
            reached.add((path, code.co_firstlineno))
    return reached


# ---------------------------------------------------------------------- #
# report
# ---------------------------------------------------------------------- #
def report(unreached: List[Function], total: Dict[str, int], listing: bool) -> None:
    by_file: Dict[str, List[Function]] = {}
    for function in unreached:
        by_file.setdefault(function.path, []).append(function)
    print(f"\n{'file':<36}{'unreached':>10}{'of':>5}{'lines':>7}")
    lines_total = 0
    for path in sorted(by_file):
        lines = len({n for f in by_file[path] for n in range(f.first, f.last + 1)})
        lines_total += lines
        print(f"{path:<36}{len(by_file[path]):>10}{total[path]:>5}{lines:>7}")
    print(f"{'total':<36}{len(unreached):>10}{sum(total.values()):>5}{lines_total:>7}")
    kinds: Dict[str, int] = {}
    for function in unreached:
        entry = reason_for(function)
        kind = entry[0] if entry else "(none)"
        kinds[kind] = kinds.get(kind, 0) + 1
    print("\nunreached by reason: " + ", ".join(f"{k} {n}" for k, n in sorted(kinds.items())))
    if listing:
        print()
        for function in unreached:
            entry = reason_for(function)
            print(f"{entry[0] if entry else '-':<10}{function.key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if an unreached function has no reason")
    parser.add_argument("--list", action="store_true",
                        help="print every unreached function with its reason kind")
    args = parser.parse_args(argv)

    print("user paths:", flush=True)
    reached = reached_code()
    every = functions()
    total: Dict[str, int] = {}
    for function in every:
        total[function.path] = total.get(function.path, 0) + 1
    unreached = [f for f in every if (f.path, f.first) not in reached]
    report(unreached, total, args.list)
    missing = [f for f in unreached if reason_for(f) is None]
    if missing:
        print(f"\n{len(missing)} unreached function(s) with no reason in REASONS:")
        for function in missing:
            print(f"  {function.key}")
    return 1 if args.check and missing else 0


if __name__ == "__main__":
    sys.exit(main())
