"""Reachability census: which ``src/`` functions do the user paths reach?

Runs every user path in this process under one :mod:`cProfile` profiler:

* the CLI matrix (:data:`CLI_MATRIX`, every subcommand and the options
  that switch code on);
* every ``examples/*.py`` script, as ``__main__``;
* the ``python`` blocks of ``docs/TUTORIAL.md``, in order, as one script
  (``tests/test_tutorial.py`` runs the same code);
* each perf-ledger workload as ``benchmarks/ledger/run.py --child trace``
  runs it, with the ledger's ``tracing.Tracer`` installed and
  ``tracing.counters`` read, at :data:`LEDGER_SCALE` of the nominal size.

A function of ``src/repro`` (every ``def``, methods and nested functions
included) is *reached* when the profiler saw it called at least once.  A
function whose body does nothing (a docstring, ``pass``, ``...`` or
``raise NotImplementedError``) declares an interface or a no-op default;
it has no code to reach and is not counted.  Every unreached function must
be deleted or carry one named reason in :data:`REASONS`, of one of the
:data:`KINDS` ``paper``, ``fault``, ``reference``, ``bench`` or ``item5``
(code that only its own unit tests call has no reason to stay).
``--check`` exits 1 when one does not, and when a :data:`REASONS` key
covers no unreached function any more (a user path reaches all of it:
the reason is stale).

The knob pass applies the same rule to the fields of the config
dataclasses (:data:`CONFIGS`): a field is *in use* when ``src/repro``
code reads it with two distinct values while the user paths run.  A read
is an attribute access on a config instance from a function of the
package; serialisation (``dataclasses.asdict`` or ``replace``, the
generated ``__repr__`` and ``__eq__``, the ledger's manifest) runs
outside it and a ``__post_init__`` only validates, so neither counts.  A
field read with one value (or none) must become a constant or carry a
:data:`REASONS` entry keyed ``file::Class.field``; ``--check`` also exits
1 when one does not, and when such an entry names a field in use.  A
field passed a second value only where nothing reads it, or passed only
its default, has one value in use.

Usage::

    python3 benchmarks/census.py            # the unreached table by file
    python3 benchmarks/census.py --list     # ... and every unreached function
    python3 benchmarks/census.py --check    # exit 1 on an unreasoned function, field or a stale key

Standard library only; about 35 s on one Intel Xeon core.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import dataclasses
import importlib
import importlib.util
import io
import os
import re
import runpy
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LEDGER = ROOT / "benchmarks" / "ledger"
EXAMPLES = ROOT / "examples"
TUTORIAL = ROOT / "docs" / "TUTORIAL.md"

#: Reason kinds a :data:`REASONS` entry may use.
KINDS = {
    "paper": "the paper's own API (cite the PAPER.md section)",
    "fault": "error, validation or fault handler: safety code",
    "reference": "an oracle that tests compare the production path against",
    "bench": "regenerates an EXPERIMENTS.md row from benchmarks/",
    "item5": "strip-level caching, the paper's future work (ROADMAP item 5)",
}

#: The config dataclasses of the knob pass, as ``file::Class`` keys.
CONFIGS = ("core/service.py::ServiceConfig", "placement/base.py::PlacementConfig")

#: Why an unreached function or a config field read with one value
#: stays: (kind, why, keys, tests).  A key is a file under ``src/repro``
#: (every function in it), ``file::Class`` (every method),
#: ``file::qualified.name`` (the function and the functions nested in it)
#: or, for a class of :data:`CONFIGS`, ``file::Class.field`` (one field).
#: ``tests`` are the test node ids (``path::Class::name``, from the
#: repository root) that need the code or set the field to another value.
#: ``tests/test_census_reasons.py``
#: checks every key names code or a field that exists, every kind is one
#: of :data:`KINDS`, every named test exists, and the named tests' files
#: mention each field and each public ``paper`` and ``reference`` key's
#: last name segment.
REASONS: List[Tuple[str, str, List[str], List[str]]] = [
    # -- paper: the paper's own API, kept and tested though no path calls it
    ("paper", "the limited-access database module: admin reads and writes go "
     "through a handle (paper: the database's full-/limited-access split)",
     ["database/access.py::DatabaseHandle.list_titles",
      "database/access.py::DatabaseHandle.search_titles",
      "database/access.py::DatabaseHandle.servers_with_title",
      "database/access.py::DatabaseHandle.server_title_ids",
      "database/access.py::DatabaseHandle.server_entry",
      "database/access.py::DatabaseHandle.link_entries",
      "database/access.py::DatabaseHandle.update_link_stats",
      "database/access.py::DatabaseHandle.update_server_config"],
     ["tests/conformance/test_paper_interface.py::TestDatabaseModules::"
      "test_each_module_is_a_database_handle_at_its_level",
      "tests/conformance/test_paper_interface.py::TestDatabaseModules::"
      "test_administrators_write_network_and_configuration"]),
    ("paper", "the full-access database view behind DatabaseHandle: catalogue "
     "browsing, search and server configuration (paper: the database module)",
     ["database/store.py::ServiceDatabase.full_access",
      "database/store.py::ServiceDatabase.list_titles",
      "database/store.py::ServiceDatabase.search_titles",
      "database/store.py::ServiceDatabase.has_title",
      "database/store.py::ServiceDatabase.server_title_ids",
      "database/store.py::ServiceDatabase.server_uids",
      "database/store.py::ServiceDatabase.link_entries",
      "database/store.py::ServiceDatabase.update_server_config"],
     ["tests/conformance/test_paper_interface.py::TestDatabaseModules::"
      "test_users_browse_and_search_the_catalogue",
      "tests/conformance/test_paper_interface.py::TestDatabaseModules::"
      "test_administrators_write_network_and_configuration"]),
    ("paper", "the statistics module's write of its link samples into the "
     "limited-access database (paper: statistics module); the collector "
     "batches one round of every module",
     ["database/store.py::ServiceDatabase.update_link_stats",
      "snmp/collector.py::NodeStatisticsModule.collect"],
     ["tests/conformance/test_paper_interface.py::TestDatabaseModules::"
      "test_administrators_write_network_and_configuration",
      "tests/snmp/test_collector.py::TestNodeStatisticsModule::"
      "test_second_poll_writes_utilization"]),
    ("paper", "equation (1) for one link; weight_table computes the whole column",
     ["core/lvn.py::link_validation_number"],
     ["tests/core/test_lvn.py::TestLinkValidationNumber::test_eq1_patra_athens_8am"]),
    ("paper", "Figure 3 striping: p = ceil(size / c) clusters laid cyclically "
     "over the disks, and which disk holds each",
     ["storage/striping.py::StripingLayout.disk_of",
      "storage/striping.py::StripingLayout.clusters_on_disk",
      "storage/striping.py::StripingLayout.total_mb",
      "storage/video.py::VideoTitle.cluster_count"],
     ["tests/storage/test_striping.py::TestStripingLayoutObject::test_disk_of",
      "tests/storage/test_striping.py::TestStripingLayoutObject::test_clusters_on_disk",
      "tests/storage/test_striping.py::TestStripingLayoutObject::"
      "test_total_mb_equals_video_size",
      "tests/storage/test_video.py::TestVideoTitle::test_cluster_count_helper"]),
    ("paper", "Figure 2 points: the DMA's request count per title",
     ["placement/base.py::PlacementPolicy.points_of"],
     ["tests/integration/test_end_to_end.py::TestFullRequestCycle::"
      "test_popularity_counts_accumulate_per_home_server"]),
    ("paper", "the K of equation (4), the LVN normalisation; the paper suggests "
     "10 and every user path keeps it (repro lvn varies K outside the service)",
     ["core/service.py::ServiceConfig.normalization_constant"],
     ["tests/core/test_service.py::TestDecide::test_normalization_constant_is_the_k_of_eq4"]),
    ("paper", "the statistics modules' collection period: PAPER.md's mapping "
     "table makes the SNMP collector period configurable (the paper polls every "
     "1-2 minutes; every user path keeps the 90 s default)",
     ["core/service.py::ServiceConfig.snmp_period_s"],
     ["tests/integration/test_snmp_pipeline.py::TestSnmpToVraPipeline::"
      "test_reported_weights_track_replayed_day"]),
    ("paper", "exact Figure 2: pin_seeded_titles=False lets the DMA evict a "
     "title's last network-wide copy, the hazard the failure-injection test pins",
     ["core/service.py::ServiceConfig.pin_seeded_titles"],
     ["tests/integration/test_failure_injection.py::TestUnavailableTitles::"
      "test_dma_can_evict_last_network_copy"]),
    ("paper", "Tables 4-5 print the search path home-to-server; the video data "
     "walks it the other way",
     ["core/vra.py::VraDecision.download_route",
      "network/routing/paths.py::Path.reversed"],
     ["tests/core/test_vra.py::TestRemoteSelection::test_download_route_reverses_path"]),
    # -- fault: error, validation and fault handlers
    ("fault", "builds the SchedulingError of a bad delay or event time",
     ["sim/engine.py::_bad_delay", "sim/engine.py::Simulator._bad_time"],
     ["tests/sim/test_engine.py::TestScheduling::test_negative_delay_rejected",
      "tests/sim/test_engine.py::TestScheduling::test_schedule_at_non_finite_time_rejected"]),
    ("fault", "sweeps cancelled events once they crowd the heap",
     ["sim/engine.py::Simulator._compact"],
     ["tests/sim/test_engine_batch.py::TestCompaction::"
      "test_compaction_triggers_when_carcasses_outnumber_pending"]),
    ("fault", "a bad yield value ends its process, not the event loop",
     ["sim/process.py::Process._fail"],
     ["tests/sim/test_process.py::TestProcessBasics::"
      "test_unsupported_yield_value_errors_process"]),
    ("fault", "spells a non-finite sample (NaN, Infinity) as json does; a "
     "finite one takes the sample writer's repr path",
     ["obs/sink.py::_json_float"],
     ["tests/obs/test_sink.py::TestSampleWriter::"
      "test_same_artifact_as_one_write_per_sample"]),
    ("fault", "a session is about to fail with no online full holder left",
     ["resilience/supervisor.py::SessionSupervisor.note_failed"],
     ["tests/resilience/test_supervisor.py::TestMidStreamFailover::"
      "test_session_fails_only_when_last_copy_is_gone"]),
    ("fault", "a deferred download failed: the partial bytes and any stale "
     "advertisement go",
     ["server/video_server.py::VideoServer.abort_download"],
     ["tests/server/test_video_server.py::TestDeferredAdvertisement::"
      "test_abort_drops_partial_bytes"]),
    # -- reference: oracles the tests compare the production path against
    ("reference", "the single-step engine the engine-equivalence properties "
     "compare run() against, and the event an ordering test reads the key of",
     ["sim/engine.py::Simulator.step", "sim/engine.py::Simulator.peek",
      "sim/engine.py::Simulator._drop_cancelled", "sim/engine.py::Simulator.stop",
      "sim/engine.py::EventHandle.event", "sim/engine.py::EventHandle.cancelled",
      "sim/engine.py::EventHandle.fired", "sim/events.py::Event.key"],
     ["tests/properties/test_engine_equivalence_props.py::test_run_is_a_loop_of_step",
      "tests/properties/test_engine_equivalence_props.py::"
      "test_step_returns_the_event_that_fired_when_its_callback_rearms",
      "tests/sim/test_engine_batch.py::TestEventKey::"
      "test_engine_orders_by_the_key_of_the_event_it_returns"]),
    ("reference", "processes that are interrupted or poked: the "
     "engine-equivalence properties drive them and compare their state",
     ["sim/process.py::Process.finished", "sim/process.py::Process.check",
      "sim/process.py::Process.interrupt", "sim/process.py::Process.poke"],
     ["tests/properties/test_engine_equivalence_props.py::test_run_is_a_loop_of_step",
      "tests/sim/test_process.py::TestParkedTransfer::"
      "test_interrupt_mid_step_releases_the_flow_and_the_lease",
      "tests/sim/test_process.py::TestProcessBasics::"
      "test_bad_delay_errors_the_process_not_the_run"]),
    ("reference", "the Zipf probabilities the sampler's frequencies are tested against",
     ["workload/zipf.py::ZipfSampler.probability_of_rank"],
     ["tests/workload/test_zipf.py::TestZipfSampler::test_empirical_matches_theoretical"]),
    ("reference", "the full search a compiled prefix search must agree with "
     "(DESIGN.md 5b.12), and the path helpers the routing tests compare",
     ["core/vra.py::VraDecision.dijkstra_result",
      "network/routing/dijkstra.py::DijkstraResult.node_path",
      "network/routing/paths.py::Path.source"],
     ["tests/core/test_vra.py::TestGoalDirectedSearch::"
      "test_decision_is_read_from_a_prefix_and_audited_in_full",
      "tests/network/test_compiled.py::TestCompiledDijkstra::test_grnet_trees_bit_identical",
      "tests/core/test_vra.py::TestRemoteSelection::test_candidate_paths_cover_all_available"]),
    ("reference", "the supervisor test asserts no session failed while this "
     "was True",
     ["resilience/supervisor.py::SessionSupervisor.holder_online"],
     ["tests/resilience/test_supervisor.py::TestMidStreamFailover::"
      "test_session_fails_only_when_last_copy_is_gone"]),
    ("reference", "the supervisor's index must be empty once every session "
     "ended: the failover tests' leak check",
     ["resilience/supervisor.py::SessionSupervisor.tracked_count"],
     ["tests/resilience/test_supervisor.py::TestMidStreamFailover::"
      "test_crash_migrates_before_the_cluster_boundary",
      "tests/resilience/test_supervisor.py::TestFaultFreeEquivalence::"
      "test_supervisor_is_invisible_without_faults"]),
    ("reference", "a DMA copy is advertised only once its download completed: "
     "the soak's and the service's stranded-advertisement check",
     ["server/video_server.py::VideoServer.pending_title_ids"],
     ["tests/integration/test_soak.py::TestSoak::test_no_stranded_pending_advertisements",
      "tests/core/test_service.py::TestDmaIntegration::"
      "test_remote_fetch_caches_at_home_after_completion"]),
    ("reference", "exactly the condition under which reserve() refuses a rate; "
     "the flow properties and the polling-session oracle read it",
     ["network/flows.py::FlowManager.bottleneck_mbps"],
     ["tests/properties/test_flows_props.py::"
      "test_reserve_refuses_exactly_when_the_rate_exceeds_the_bottleneck",
      "tests/properties/test_session_props.py::test_transfer_matches_the_polling_oracle"]),
    ("reference", "per-link and per-server change counters: the value-aware "
     "setter and zero-reserve tests read them to show a no-op notifies nothing, "
     "and the structure token shows an online flip rebuilds no structure",
     ["network/link.py::Link.state_version", "network/link.py::Link.traffic_version",
      "server/video_server.py::VideoServer.state_version",
      "network/compiled.py::TopologySnapshot.structure_token"],
     ["tests/faults/test_value_aware_state.py::TestLinkOnlineValueAware::"
      "test_same_value_assign_bumps_nothing",
      "tests/faults/test_value_aware_state.py::TestServerOnlineValueAware::"
      "test_same_value_assign_bumps_nothing",
      "tests/network/test_routing_cache.py::TestLinkVersions::test_zero_reserve_is_not_a_change",
      "tests/network/test_compiled.py::TestStructure::"
      "test_online_flip_refreshes_mask_without_structure_rebuild"]),
    ("reference", "the both-ends SNMP oracle copies the poll period and skips a "
     "blacked-out round; the one-reporter test reads each end's agent",
     ["snmp/collector.py::StatisticsService.blacked_out",
      "snmp/collector.py::NodeStatisticsModule.agent"],
     ["tests/snmp/test_collector.py::TestOneReporterPerLink::"
      "test_rounds_match_the_both_ends_oracle",
      "tests/snmp/test_collector.py::TestOneReporterPerLink::"
      "test_both_endpoints_always_compute_the_same_sample"]),
    # -- bench: regenerates an EXPERIMENTS.md row from benchmarks/
    ("bench", "the X3 centralised-service baseline (selection 'origin:<uid>')",
     ["baselines/selection.py::HomeOnlySelection"],
     ["benchmarks/test_bench_vra_baselines.py::test_x3_service_level"]),
    ("bench", "Tables 2-3 computed against printed: test_bench_table2/3 and the "
     "ledger's paper_table3_max_abs_err",
     ["experiments/casestudy.py::table2_deltas", "experiments/casestudy.py::table3_deltas",
      "experiments/casestudy.py::CellDelta"],
     ["benchmarks/test_bench_table2.py::test_table2_reproduction",
      "benchmarks/test_bench_table3.py::test_table3_reproduction"]),
    ("bench", "the DMA bench draws its request stream and reads the cached set",
     ["workload/zipf.py::ZipfSampler.sample_many",
      "placement/base.py::PlacementPolicy.cached_title_ids"],
     ["benchmarks/test_bench_dma.py::test_figure2_dma_converges_to_most_popular"]),
    # -- item5: strip-level caching, the paper's future work
    ("item5", "strip-level distributed caching (ROADMAP item 5)",
     ["extensions/strip_caching.py"],
     ["tests/extensions/test_strip_caching.py::TestEvaluator::test_replay_returns_report"]),
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
    ["simulate", "--requests-per-node", "2", "--cache", "fullrep", "--title-mb", "120"],
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


def _covering_keys(function: Function) -> set:
    """Every key that would cover ``function``: its file and each prefix
    of its qualified name."""
    parts = function.qualname.split(".")
    return {function.path} | {
        f"{function.path}::{'.'.join(parts[:end])}" for end in range(1, len(parts) + 1)
    }


def reason_for(function: Function):
    """The (kind, why) covering ``function``, or None."""
    covering = _covering_keys(function)
    for kind, why, keys, _ in REASONS:
        if covering.intersection(keys):
            return kind, why
    return None


def _is_field_key(key: str) -> bool:
    """Does ``key`` name a config field (``file::Class.field``)?"""
    return key.rpartition(".")[0] in CONFIGS


def stale_keys(unreached: List[Function]) -> List[str]:
    """The function :data:`REASONS` keys that cover no unreached function."""
    covered = set().union(*map(_covering_keys, unreached))
    return [
        key for _, _, keys, _ in REASONS for key in keys
        if not _is_field_key(key) and key not in covered
    ]


# ---------------------------------------------------------------------- #
# the fields of the config dataclasses
# ---------------------------------------------------------------------- #
def _config_class(config: str):
    path, _, name = config.partition("::")
    module = importlib.import_module("repro." + path.removesuffix(".py").replace("/", "."))
    return getattr(module, name)


def config_fields() -> List[str]:
    """Every field of every :data:`CONFIGS` class, as ``file::Class.field``."""
    return [
        f"{config}.{field.name}"
        for config in CONFIGS
        for field in dataclasses.fields(_config_class(config))
    ]


class Read(NamedTuple):
    """One read of a config field: its key, the value (hashable: a value
    that is not hashable by itself is keyed by its ``repr``), and the
    reading code as ``file::function`` under ``src/repro``, or None when
    the code is outside the package."""

    field: str
    value: object
    caller: Optional[str]


def values_in_use(reads) -> Dict[str, set]:
    """The distinct values each field key was read with by package code,
    validation (``__post_init__``) aside."""
    values: Dict[str, set] = {}
    for read in reads:
        if read.caller is None or read.caller.endswith("::__post_init__"):
            continue
        values.setdefault(read.field, set()).add(read.value)
    return values


def single_valued(fields: List[str], reads) -> List[str]:
    """The keys of ``fields`` the package read with fewer than two values."""
    values = values_in_use(reads)
    return [key for key in fields if len(values.get(key, ())) < 2]


def _hashable(value) -> object:
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


@contextlib.contextmanager
def recording_config_reads(reads: set):
    """Add a :class:`Read` to ``reads`` for every field read of a
    :data:`CONFIGS` instance while the block runs."""
    package = str(PACKAGE) + os.sep
    callers: Dict[object, Optional[str]] = {}

    def caller_of(code) -> Optional[str]:
        if code not in callers:
            file = code.co_filename
            callers[code] = (
                f"{Path(file).relative_to(PACKAGE).as_posix()}::{code.co_name}"
                if file.startswith(package) else None
            )
        return callers[code]

    def recording(get, config: str, names: frozenset):
        def __getattribute__(self, name):
            value = get(self, name)
            if name in names:
                caller = caller_of(sys._getframe(1).f_code)
                reads.add(Read(f"{config}.{name}", _hashable(value), caller))
            return value

        return __getattribute__

    originals = {}
    for config in CONFIGS:
        cls = _config_class(config)
        names = frozenset(field.name for field in dataclasses.fields(cls))
        originals[cls] = cls.__dict__.get("__getattribute__")
        cls.__getattribute__ = recording(cls.__getattribute__, config, names)
    try:
        yield
    finally:
        for cls, get in originals.items():
            if get is None:
                del cls.__getattribute__
            else:
                cls.__getattribute__ = get


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


def _tutorial_paths():
    text = TUTORIAL.read_text(encoding="utf-8")
    code = "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    code = "\n".join(line for line in code.splitlines() if line.strip() != "...")
    compiled = compile(code, str(TUTORIAL), "exec")
    yield "docs/TUTORIAL.md", lambda: exec(compiled, {})  # noqa: S102


def _ledger_paths():
    sys.path.insert(0, str(LEDGER))
    spec = importlib.util.spec_from_file_location("ledger_run", LEDGER / "run.py")
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    seconds = repr(ledger.NOMINAL_SECONDS * LEDGER_SCALE)
    for name in WORKLOADS:
        argv = ["--child", "trace", "--workload", name, "--seed", "42", "--seconds", seconds]
        yield f"ledger {name}", lambda argv=argv: ledger.main(argv)


def reached_code(reads: set) -> set:
    """(file, first line) of every code object under ``src/repro`` that a
    user path called; adds to ``reads`` the config field reads they made."""
    sys.path.insert(0, str(SRC))
    profiler = cProfile.Profile()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp, recording_config_reads(reads):
        for paths in (_cli_paths(tmp), _example_paths(), _tutorial_paths(), _ledger_paths()):
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
                        help="exit 1 if an unreached function or a config field "
                             "read with one value has no reason, or a key is stale")
    parser.add_argument("--list", action="store_true",
                        help="print every unreached function with its reason kind")
    args = parser.parse_args(argv)

    print("user paths:", flush=True)
    reads: set = set()
    reached = reached_code(reads)
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
    stale = stale_keys(unreached)
    if stale:
        print(f"\n{len(stale)} REASONS key(s) a user path now reaches in full:")
        for key in stale:
            print(f"  {key}")
    fields = config_fields()
    single = single_valued(fields, reads)
    values = values_in_use(reads)
    field_keys = {key: kind for kind, _, keys, _ in REASONS for key in keys if _is_field_key(key)}
    print(f"\nconfig fields read with one value: {len(single)} of {len(fields)}")
    for config in CONFIGS:
        print(f"  {config}: {sum(key.startswith(config + '.') for key in fields)} fields")
    for key in single:
        shown = ", ".join(sorted(map(repr, values.get(key, ())))) or "never read"
        print(f"{field_keys.get(key, '-'):<10}{key}  ({shown})")
    unreasoned = [key for key in single if key not in field_keys]
    if unreasoned:
        print(f"\n{len(unreasoned)} config field(s) read with one value, with no reason "
              "in REASONS (make each a constant):")
        for key in unreasoned:
            print(f"  {key}")
    in_use = [key for key in field_keys if key not in single]
    if in_use:
        print(f"\n{len(in_use)} REASONS field key(s) a user path now reads with two values:")
        for key in in_use:
            print(f"  {key}")
    failed = missing or stale or unreasoned or in_use
    return 1 if args.check and failed else 0


if __name__ == "__main__":
    sys.exit(main())
