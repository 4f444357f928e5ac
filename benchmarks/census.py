"""Reachability census: which ``src/`` functions and branch arms do the
user paths run?

Runs every user path in this process under one :func:`sys.settrace`
tracer:

* the CLI matrix (:data:`CLI_MATRIX`, every subcommand and the options
  that switch code on);
* every ``examples/*.py`` script, as ``__main__``;
* the ``python`` blocks of ``docs/TUTORIAL.md``, in order, as one script
  (``tests/test_tutorial.py`` runs the same code);
* each perf-ledger workload as ``benchmarks/ledger/run.py --child trace``
  runs it, with the ledger's ``tracing.Tracer`` installed and
  ``tracing.counters`` read, at :data:`LEDGER_SCALE` of the nominal size.

The tracer's ``call`` events give the reached functions, its ``line``
events the lines of ``src/repro`` that ran.

A function of ``src/repro`` (every ``def``, methods and nested functions
included) is *reached* when the tracer saw it called at least once.  A
function whose body does nothing (a docstring, ``pass``, ``...`` or
``raise NotImplementedError``) declares an interface or a no-op default;
it has no code to reach and is not counted.  Every unreached function must
be deleted or carry one named reason in :data:`REASONS`, of one of the
:data:`KINDS` ``paper``, ``fault``, ``reference`` or ``bench`` (code
that only its own unit tests call has no reason to stay).
``--check`` exits 1 when one does not, and when a :data:`REASONS` key
covers no unreached function any more (a user path reaches all of it:
the reason is stale).

The arm rule applies the same test inside the reached functions.  An
*arm* (:func:`arms`) is the body of an ``if`` or ``elif`` or its
``else``, the body of a ``for`` or ``while`` loop or its ``else``, a
``try`` statement's ``else`` or ``except`` handler, or a ``match`` case.
It *ran* when a line of its first statement's header ran (the whole
statement for a simple one; ``try:`` also counts the first line of its
body).  Its key is ``file::qualname::label``, the label being ``if``,
``else of if``, ``for``, ``while``, ``except``, ``else of try`` or
``case`` followed by ``ast.unparse`` of the condition (``#2``, ``#3``
number a label repeated in one function), so an edit elsewhere in the
file does not move it.  An arm that ends in ``raise`` or is an
``except`` handler is of kind :data:`ERROR`: safety code, counted and
listed but not gated.  Every other arm that did not run in a reached
function (:func:`unrun_arms`; one inside an arm that did not run follows
that arm and is not counted) must be deleted, reached by a user path, or
carry a :data:`REASONS` entry keyed by its arm key whose named tests run
it; ``--check`` also exits 1 on an arm key that names no such arm.
Line events cannot see an ``if`` that has no ``else`` skip its body, so
that implicit arm is not counted.

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

    python3 benchmarks/census.py            # the unreached and unrun tables by file
    python3 benchmarks/census.py --list     # ... and every unreached function and unrun arm
    python3 benchmarks/census.py --check    # exit 1 on an unreasoned function, arm, field or a stale key

Standard library only.  The line events roughly double the cost of the
user paths: about 45 s on one Intel Xeon core, against about 25 s for the
call-only ``cProfile`` census it replaced.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
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
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

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
}

#: The kind of an arm that ends in ``raise`` or is an ``except`` handler:
#: safety code, listed by ``--list`` but not gated.
ERROR = "error"

#: The config dataclasses of the knob pass, as ``file::Class`` keys.
CONFIGS = ("core/service.py::ServiceConfig", "placement/base.py::PlacementConfig")

#: Why an unreached function, an unrun arm or a config field read with
#: one value stays: (kind, why, keys, tests).  A key is a file under
#: ``src/repro`` (every function in it), ``file::Class`` (every method),
#: ``file::qualified.name`` (the function and the functions nested in it),
#: ``file::qualified.name::label`` (one arm, see :func:`arms`) or, for a
#: class of :data:`CONFIGS`, ``file::Class.field`` (one field).  ``tests``
#: are the test node ids (``path::Class::name``, from the repository root)
#: that need the code, run the arm or set the field to another value.
#: ``tests/test_census_reasons.py`` checks every key names code, an arm or
#: a field that exists, every kind is one of :data:`KINDS`, every named
#: test exists, and the named tests' files mention each field and each
#: public ``paper`` and ``reference`` key's last name segment (an arm's
#: function's).
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
      "database/store.py::ServiceDatabase.update_server_config",
      "database/store.py::ServiceDatabase.servers_with_title"],
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
    ("paper", "equations (1)-(4) for one node or link, the paper's public API; "
     "weight_table computes the whole column on the routing kernel",
     ["core/lvn.py::link_validation_number", "core/lvn.py::node_validation",
      "core/lvn.py::link_value", "core/lvn.py::link_traffic",
      "core/lvn.py::link_utilization_term", "core/lvn.py::_ground_truth"],
     ["tests/core/test_lvn.py::TestLinkValidationNumber::test_eq1_patra_athens_8am",
      "tests/core/test_lvn.py::TestNodeValidation::test_eq2_aggregates_adjacent_links",
      "tests/core/test_lvn.py::TestLinkValue::test_eq4_divides_by_k",
      "tests/core/test_lvn.py::TestLinkTrafficAndLU::test_eq3_lu_is_lt_times_lv"]),
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
    ("paper", "a baseline's decision keeps the VraDecision audit contract (the "
     "candidate list with each one's path, DESIGN.md 5b.12): its min-hop paths; "
     "no user path reads a baseline's audit",
     ["baselines/selection.py::_hop_audit"],
     ["tests/baselines/test_selection.py::TestFullTreeConsumer::"
      "test_candidate_paths_span_every_reachable_node"]),
    # -- fault: error, validation and fault handlers
    ("fault", "builds the SchedulingError of a bad delay or event time",
     ["sim/engine.py::bad_delay", "sim/engine.py::Simulator._bad_time"],
     ["tests/sim/test_engine.py::TestScheduling::test_negative_delay_rejected",
      "tests/sim/test_engine.py::TestScheduling::test_schedule_at_non_finite_time_rejected"]),
    ("fault", "sweeps cancelled events once they crowd the heap",
     ["sim/engine.py::Simulator._compact"],
     ["tests/sim/test_engine_batch.py::TestCompaction::"
      "test_compaction_triggers_when_carcasses_outnumber_pending"]),
    ("fault", "spells a non-finite sample (NaN, Infinity) as json does; a "
     "finite one takes the sample writer's repr path",
     ["obs/sink.py::_json_float"],
     ["tests/obs/test_sink.py::TestSampleWriter::"
      "test_same_artifact_as_one_write_per_sample"]),
    ("fault", "a session is about to fail with no full copy of its title left: "
     "logged, and its error built, when it decides or when the last copy goes "
     "while it stalls",
     ["resilience/supervisor.py::SessionSupervisor.note_failed",
      "resilience/supervisor.py::SessionSupervisor._lost"],
     ["tests/resilience/test_supervisor.py::TestMidStreamFailover::"
      "test_session_fails_only_when_last_copy_is_gone",
      "tests/resilience/test_supervisor.py::TestStallWakeUps::"
      "test_losing_the_last_copy_fails_its_waiters_at_that_instant"]),
    ("fault", "a deferred download failed: the partial bytes and any stale "
     "advertisement go",
     ["server/video_server.py::VideoServer.abort_download"],
     ["tests/server/test_video_server.py::TestDeferredAdvertisement::"
      "test_abort_drops_partial_bytes"]),
    # -- reference: oracles the tests compare the production path against
    ("reference", "single steps the engine-equivalence properties compare "
     "run() and the one-heap reference against, and the event an ordering test "
     "reads the key of",
     ["sim/engine.py::Simulator.step", "sim/engine.py::Simulator.peek",
      "sim/engine.py::Simulator._head", "sim/engine.py::Simulator.stop",
      "sim/engine.py::EventHandle.event", "sim/engine.py::EventHandle.cancelled",
      "sim/engine.py::EventHandle.fired", "sim/events.py::Event.key"],
     ["tests/properties/test_engine_equivalence_props.py::test_run_is_a_loop_of_step",
      "tests/properties/test_engine_equivalence_props.py::"
      "test_step_returns_the_event_that_fired_when_its_callback_returns_a_step",
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
    ("reference", "a decision record's value equality (every field but its audit): "
     "the memo-on/memo-off and one-reporter/both-ends properties compare "
     "decisions with it; no user path compares two",
     ["core/vra.py::VraDecision.__eq__", "core/vra.py::VraDecision.__ne__"],
     ["tests/properties/test_decision_memo_props.py::"
      "test_decision_memo_invisible_in_session_records",
      "tests/core/test_vra.py::TestDecisionRecord::test_equality_ignores_the_audit"]),
    ("reference", "a decision record's repr names every field but its audit inputs "
     "(a bound method, the candidates, a search tree), as the dataclass's did; a "
     "failing test's message prints it, no user path does",
     ["core/vra.py::VraDecision.__repr__"],
     ["tests/core/test_vra.py::TestDecisionRecord::test_repr_leaves_the_audit_out"]),
    ("reference", "the full search a goal-directed prefix search must agree with "
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
    ("reference", "the structure token shows an online flip rebuilds no structure",
     ["network/compiled.py::TopologySnapshot.structure_token"],
     ["tests/network/test_compiled.py::TestStructure::"
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
    ("bench", "the Figure 5 bench prints each chosen path paper-style",
     ["network/routing/paths.py::Path.as_label"],
     ["benchmarks/test_bench_vra_service.py::test_figure5_service_decision"]),
    # -- arms: branch arms of reached functions that no user path runs
    ("paper", "Figure 2's branches no user path takes: the one-victim DMA "
     "(evict_until_fits=False, the paper's exact rule), no unpinned victim "
     "left, and a victim evicted while the newcomer still does not fit",
     ["placement/whole_title.py::WholeTitleDma._try_replacement::if not self.evict_until_fits",
      "placement/whole_title.py::WholeTitleDma._try_replacement::if victim is None",
      "placement/whole_title.py::WholeTitleDma._pass::if evicted"],
     ["tests/core/test_dma.py::TestFigure2Branches::test_single_eviction_even_if_still_unfit",
      "tests/core/test_vra_cache.py::test_server_load_extension_memoized_matches_reference"]),
    ("paper", "Figure 2 at segment granularity: no victim left",
     ["placement/base.py::FractionalPlacementPolicy._make_room::if victim is None"],
     ["tests/properties/test_placement_props.py::test_capacity_never_exceeded"]),
    ("reference", "a full copy's resident fraction: the placement passes ask the array "
     "whether a title is whole first, and the property suite compares every "
     "pass's reported fraction against this answer",
     ["storage/array.py::DiskArray.resident_fraction::if title_id in self._videos"],
     ["tests/properties/test_placement_props.py::test_result_fraction_matches_array_state"]),
    ("paper", "the database module's records: a title entry derives its bitrate from "
     "size and duration, and a server registers with the titles it already "
     "holds (paper: the database module)",
     ["database/records.py::TitleInfo.__post_init__::if self.bitrate_mbps <= 0.0",
      "database/store.py::ServiceDatabase.register_server::for title_id in entry.title_ids"],
     ["tests/database/test_records.py::TestTitleInfo::test_frozen_and_comparable",
      "tests/database/test_store.py::TestRegistration::test_server_with_initial_titles_indexed"]),
    ("fault", "a session that fails, or a request rejected after the DMA stored its "
     "title: the in-flight copy is aborted and a failure is counted (no user "
     "path fails a session or rejects such a request)",
     ["core/service.py::_RequestObserver.finish::else of if record.completed",
      "core/service.py::_RequestObserver.finish::else of if record.completed #2",
      "core/service.py::VoDService._reject::if observer.dma_stored"],
     ["tests/obs/test_service_obs.py::TestEveryEnding::"
      "test_every_ending_with_observability_on_or_off"]),
    ("fault", "strict QoS re-checks a request that waited in the admission queue and "
     "blocks it",
     ["core/service.py::VoDService._admit::if refusal is not None"],
     ["tests/obs/test_service_obs.py::TestEveryEnding::"
      "test_every_ending_with_observability_on_or_off"]),
    ("fault", "resilience wiring no user path exercises: a server added to a running "
     "service is supervised too, a preempted segment resumes from "
     "another server, and a disk fails on a server with no supervised "
     "session",
     ["core/session.py::StreamingSession._deliver_cluster::if switched",
      "resilience/supervisor.py::SessionSupervisor.on_disk_failure::if not bucket"],
     ["tests/resilience/test_supervisor.py::TestMidStreamFailover::"
      "test_a_server_added_at_runtime_is_supervised_too",
      "tests/resilience/test_supervisor.py::TestMidStreamFailover::"
      "test_disk_failure_preempts_affected_sessions",
      "tests/properties/test_failover_props.py::"
      "test_no_session_fails_while_an_online_holder_existed"]),
    ("fault", "a failover stall parked by a partition and woken by a link-up, or "
     "woken or failed by its title's holder list moving: the census runs' stalls "
     "all end on a holder's poll answer",
     ["resilience/supervisor.py::SessionSupervisor._index::if stall.partitioned",
      "resilience/supervisor.py::SessionSupervisor.on_locations::if self.holder_exists(title_id)",
      "resilience/supervisor.py::SessionSupervisor.on_locations::for stall in list(bucket)"],
     ["tests/resilience/test_supervisor.py::TestStallWakeUps::"
      "test_a_partitioned_stall_resumes_at_the_link_up",
      "tests/resilience/test_supervisor.py::TestStallWakeUps::"
      "test_a_new_holder_ends_the_stall_as_it_is_advertised",
      "tests/resilience/test_supervisor.py::TestStallWakeUps::"
      "test_losing_the_last_copy_fails_its_waiters_at_that_instant"]),
    ("fault", "an error in a transfer's own step (a path that crosses a link twice, a "
     "NaN step) is raised in its session, which fails, and a bad yield value "
     "is raised in its generator: no user path builds such a path, step or "
     "yield",
     ["sim/process.py::Process._resume::if throw"],
     ["tests/core/test_session.py::TestStepErrors::"
      "test_a_path_crossing_a_link_twice_fails_its_session_only",
      "tests/sim/test_process.py::TestParkedTransfer::"
      "test_bad_step_fails_that_session_only_and_releases",
      "tests/sim/test_process.py::TestProcessBasics::"
      "test_unsupported_yield_value_errors_process"]),
    ("fault", "the command line's failure exits: a failed placement replay gate and "
     "the chaos gates' messages",
     ["cli.py::_cmd_placement::if not comparison.gates_passed",
      "cli.py::_cmd_chaos::if args.min_availability is not None and report.availability < args.min_availability",
      "cli.py::_cmd_chaos::if args.min_recovered is not None and recovered_total < args.min_recovered",
      "cli.py::_cmd_chaos::if args.max_p95_stall_s is not None and report.p95_stall_s > args.max_p95_stall_s"],
     ["tests/test_cli.py::TestPlacement::test_a_failed_replay_gate_exits_1",
      "tests/test_cli.py::TestChaos::test_min_availability_floor_gates_exit_code",
      "tests/test_cli.py::TestChaos::test_recovered_floor_and_stall_bound_gate_exit_code"]),
    ("fault", "a title bigger than what the LRU baseline can free: no victim left, "
     "with or without a victim lost on the way",
     ["baselines/caching.py::LruCachePolicy._pass::if victim is None",
      "baselines/caching.py::LruCachePolicy._pass::if evicted",
      "baselines/caching.py::LruCachePolicy._pass::else of if evicted"],
     ["tests/baselines/test_caching.py::TestLru::test_title_bigger_than_array_not_stored",
      "tests/baselines/test_caching.py::TestLru::"
      "test_title_bigger_than_an_empty_array_is_point_only"]),
    ("fault", "a Dijkstra over a weight a link cannot take (the full run names the "
     "link), or a node with no link",
     ["network/compiled.py::TopologySnapshot.dijkstra::if not valid",
      "network/compiled.py::TopologySnapshot._rebuild_structure::if not adjacent and linkless_pos is None"],
     ["tests/core/test_vra.py::TestGoalDirectedSearch::test_partitioned_holders_still_raise",
      "tests/network/test_compiled.py::TestCompiledDijkstra::"
      "test_invalid_weight_matches_python_error",
      "tests/network/test_compiled.py::TestWeightKernel::"
      "test_linkless_node_raises_same_error_in_both_paths"]),
    ("fault", "fault-injection edge cases: a degrade clamped to nothing undoes "
     "nothing, a kind drawn at rate 0 schedules nothing, and no recovery yet "
     "means a mean MTTR of 0",
     ["faults/injector.py::FaultInjector._recover_degrade::if applied <= 0.0",
      "faults/schedule.py::FaultSchedule.seeded::if rate_per_s <= 0.0",
      "faults/injector.py::FaultInjector.mean_mttr_s::if self._mttr_count == 0"],
     ["tests/faults/test_injector.py::TestLinkFaults::"
      "test_clamped_degrades_undo_only_what_they_applied",
      "tests/faults/test_events_and_schedule.py::TestSeededSchedule::"
      "test_kind_streams_independent",
      "tests/faults/test_injector.py::TestBookkeeping::"
      "test_mean_mttr_is_zero_before_any_recovery"]),
    ("fault", "numeric edge cases: a time average over a zero-length window, an "
     "empty histogram, and a timeline with no samples",
     ["metrics/timeseries.py::TimeSeries.time_average::if horizon == self._times[0]",
      "obs/registry.py::Histogram.percentile::if not self._ring",
      "experiments/report.py::render_timeline::if not kept"],
     ["tests/metrics/test_timeseries.py::TestTimeAverage::test_single_sample",
      "tests/obs/test_registry.py::TestHistogram::test_empty_percentile_is_zero",
      "tests/experiments/test_report.py::TestRenderTimeline::test_empty_and_all_empty"]),
    ("fault", "bounds on memory: the path memo starts over at its capacity and the "
     "histogram ring overwrites its oldest sample",
     ["network/flows.py::FlowManager.links_of::if len(self._path_links) >= PATH_MEMO_CAPACITY",
      "obs/registry.py::Histogram.observe::else of if len(self._ring) < self._ring_size"],
     ["tests/network/test_flows.py::TestReservation::test_path_memo_starts_over_at_capacity",
      "tests/obs/test_registry.py::TestHistogram::"
      "test_ring_bounds_percentile_memory_but_not_totals"]),
    ("fault", "a reservation a link cannot take raises the link's own error before "
     "any link is touched",
     ["network/flows.py::FlowManager.reserve::if rate_mbps > link.free_mbps + 1e-09"],
     ["tests/network/test_flows.py::TestCapacityQueries::test_concurrent_flows_share_capacity"]),
    ("fault", "topology queries on degenerate input: a node's link to itself and an "
     "empty topology",
     ["network/topology.py::Topology.has_link_between::if a_uid == b_uid",
      "network/topology.py::Topology.is_connected::if not self._nodes"],
     ["tests/network/test_topology.py::TestLookup::test_has_link_between",
      "tests/network/test_topology.py::TestAnalysis::test_empty_topology_is_connected"]),
    ("fault", "telemetry guards: a disabled registry hands out no-ops and summarises "
     "in one line, a repeated registration returns the first instrument, and a "
     "non-finite sample is spelled as json does",
     ["obs/registry.py::MetricsRegistry.gauge::if not self.enabled",
      "obs/registry.py::MetricsRegistry.gauge::if existing is not None",
      "obs/registry.py::MetricsRegistry._get_or_create::if existing is not None",
      "obs/export.py::summarize_telemetry::if not registry.enabled",
      "obs/sink.py::JsonlTelemetrySink.sample_writer.write_sample::else of if time - time == 0.0 and value - value == 0.0"],
     ["tests/obs/test_registry.py::TestDisabledRegistry::"
      "test_hands_out_shared_noops_and_registers_nothing",
      "tests/obs/test_registry.py::TestRegistry::"
      "test_gauge_callback_kept_from_first_registration",
      "tests/obs/test_registry.py::TestRegistry::test_label_order_does_not_matter",
      "tests/obs/test_export.py::TestSummary::test_disabled_registry_summary",
      "tests/obs/test_sink.py::TestSampleWriter::test_same_artifact_as_one_write_per_sample"]),
    ("fault", "the streamer's lifecycle guards: start and finish are idempotent, "
     "finish starts an unstarted stream, rows written before start are kept, "
     "and peak RSS reads 0 without the resource module and bytes on macOS",
     ["obs/stream.py::StreamingTelemetry.start::if self._started",
      "obs/stream.py::StreamingTelemetry.start::for row in held.rows",
      "obs/stream.py::StreamingTelemetry.finish::if self._finished",
      "obs/stream.py::StreamingTelemetry.finish::if not self._started",
      "obs/stream.py::peak_rss_kb::if resource is None",
      "obs/stream.py::peak_rss_kb::if sys.platform == 'darwin'"],
     ["tests/obs/test_stream.py::TestFooter::"
      "test_start_is_idempotent_and_finish_starts_an_unstarted_stream",
      "tests/obs/test_stream.py::TestStreaming::test_start_points_the_runs_sink_at_the_streamer",
      "tests/obs/test_stream.py::TestFooter::test_finish_is_idempotent",
      "tests/obs/test_stream.py::TestFooter::"
      "test_peak_rss_reads_kib_on_linux_bytes_on_macos_and_0_without_resource"]),
    ("fault", "a promoted prefix evicted before its download finished",
     ["server/video_server.py::VideoServer._withdraw::if self._database.holds_title(self.node_uid, title_id)"],
     ["tests/server/test_video_server.py::TestDeferredAdvertisement::"
      "test_evicting_a_promoted_prefix_before_commit_drops_its_advertisement"]),
    ("fault", "engine and process guards: a second cancel, the compaction trigger, a "
     "late resume of a finished process, and a second start of a periodic "
     "task",
     ["sim/engine.py::EventHandle.cancel::if not self.pending",
      "sim/engine.py::Simulator._note_cancel::if depth >= COMPACTION_FLOOR and depth - self._pending > self._pending",
      "sim/process.py::Process._resume::if self._finished",
      "sim/timers.py::PeriodicTask.start::if self._running"],
     ["tests/sim/test_engine.py::TestCancellation::test_double_cancel_returns_false",
      "tests/sim/test_engine_batch.py::TestCompaction::test_on_compaction_hook_fires",
      "tests/sim/test_process.py::TestPark::test_finished_process_ignores_a_late_resume",
      "tests/sim/test_timers.py::TestPeriodicTask::test_double_start_is_noop"]),
    ("fault", "disk-array refusals: a title already held, a failed disk, a title "
     "not held, and a cluster a poll never asks about (past a segment, of a "
     "title not held, or of a full copy, which answers for the whole title)",
     ["storage/array.py::DiskArray.can_store::if video.title_id in self._videos or video.title_id in self._partials",
      "storage/array.py::DiskArray.can_store::if disk_index in self._failed_disks",
      "storage/array.py::DiskArray.can_store_segment::if disk_index in self._failed_disks",
      "storage/array.py::DiskArray.is_servable::if title_id not in self._videos",
      "storage/array.py::DiskArray.cluster_servable::if title_id in self._videos",
      "storage/array.py::DiskArray.cluster_servable::else of if title_id in self._partials",
      "storage/array.py::DiskArray.cluster_servable::if not 0 <= cluster_index < count"],
     ["tests/storage/test_array.py::TestCanStore::test_already_stored_is_not_storable",
      "tests/experiments/test_resilience.py::TestReplay::test_same_seed_replays_bit_for_bit",
      "tests/storage/test_array_segments.py::TestResidencyQueries::"
      "test_can_store_segment_refusals_and_no_op",
      "tests/server/test_video_server.py::TestServing::"
      "test_can_provide_requires_title_and_capacity",
      "tests/storage/test_array_segments.py::TestSegmentServability::"
      "test_cluster_servable_within_segment_only",
      "tests/storage/test_array_segments.py::TestSegmentServability::"
      "test_cluster_servable_full_video"]),
    ("reference", "instruments read the same with the memo on or off: a replayed local "
     "serve counts as the VRA's own would (the memo-off path is the "
     "reference the memo tests compare)",
     ["core/vra.py::VirtualRoutingAlgorithm.count_replayed::if decision.served_locally"],
     ["tests/core/test_decision_cache.py::TestReplayInstrumentParity::"
      "test_instruments_read_the_same_with_the_memo_on_or_off"]),
    ("reference", "same-key coalescing inside one drain tick: the cohort tests check the "
     "counters against the requests and drain ticks of a run",
     ["core/admission_queue.py::AdmissionQueue._note_cohort::if key in self._cohort"],
     ["tests/core/test_admission_queue.py::TestPacing::test_within_quota_is_immediate"]),
    ("bench", "the X3 centralised-service baseline ('origin:<uid>') and the X7 "
     "strict-QoS row, where a local serve is always admitted",
     ["experiments/harness.py::_apply_selection::if key.startswith('origin:')",
      "core/service.py::VoDService._qos_refusal::if decision.served_locally"],
     ["tests/experiments/test_harness.py::TestBuildService::test_origin_selection_policy",
      "tests/core/test_service_extensions.py::TestStrictQosAdmission::"
      "test_local_serve_always_admitted"]),
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
     "--switching", "never", "--placement", "lru", "--admission-queue-capacity", "4"],
    ["simulate", "--requests-per-node", "2", "--selection", "random",
     "--switching", "period:2", "--placement", "dma-greedy"],
    ["simulate", "--requests-per-node", "2", "--selection", "static", "--placement", "nocache"],
    ["simulate", "--requests-per-node", "2", "--placement", "fullrep", "--title-mb", "120"],
    ["simulate", "--requests-per-node", "2", "--placement", "prefix"],
    ["simulate", "--requests-per-node", "2", "--placement", "partial"],
    ["placement", "--requests-per-node", "3", "--catalog-size", "4", "--check"],
    ["obs", "--requests-per-node", "3", "--timeline", "link.utilization"],
    ["obs", "--requests-per-node", "3", "--format", "jsonl", "--out", "{tmp}/obs.jsonl",
     "--trace-out", "{tmp}/trace.jsonl"],
    # Without --out the export goes to stdout: a handle the sink does not own.
    ["obs", "--requests-per-node", "2", "--format", "csv"],
    ["obs", "--scenario", "flash-crowd", "--requests-per-node", "4"],
    # A shedding admission queue: 12 requests queue, 2 are shed.
    ["obs", "--scenario", "flash-crowd", "--requests-per-node", "4",
     "--admission-queue-capacity", "2", "--admission-rate", "0.01",
     "--admission-tick", "60", "--trace-out", "{tmp}/flash.jsonl"],
    ["chaos", "--duration-hours", "1", "--requests-per-node", "3", "--show-faults",
     "--telemetry-out", "{tmp}/chaos.csv"],
    ["chaos", "--duration-hours", "1", "--requests-per-node", "3", "--json", "--failover",
     "--max-stats-age", "300", "--min-availability", "0.1",
     "--min-recovered", "0", "--max-p95-stall-s", "99999"],
    # The CI failover storm: sessions fail over.
    ["chaos", "--seed", "11", "--duration-hours", "2", "--requests-per-node", "12",
     "--retry-attempts", "0", "--server-crash-rate", "6", "--link-flap-rate", "4",
     "--mean-fault-duration", "600", "--failover", "--max-stats-age", "300"],
    ["sweep-cluster-size"],
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


def arm_kind(arm) -> Optional[str]:
    """:data:`ERROR` for an error arm, else the kind of the :data:`REASONS`
    entry keyed by the arm's key, or None."""
    if arm.error:
        return ERROR
    for kind, _, keys, _ in REASONS:
        if arm.key in keys:
            return kind
    return None


def _is_field_key(key: str) -> bool:
    """Does ``key`` name a config field (``file::Class.field``)?"""
    return key.rpartition(".")[0] in CONFIGS


def _is_arm_key(key: str) -> bool:
    """Does ``key`` name an arm (``file::qualname::label``)?"""
    return "::" in key.partition("::")[2]


def stale_keys(unreached: List[Function]) -> List[str]:
    """The function :data:`REASONS` keys that cover no unreached function."""
    covered = set().union(*map(_covering_keys, unreached))
    return [
        key for _, _, keys, _ in REASONS for key in keys
        if not _is_field_key(key) and not _is_arm_key(key) and key not in covered
    ]


# ---------------------------------------------------------------------- #
# the branch arms of the reached functions
# ---------------------------------------------------------------------- #
class Arm(NamedTuple):
    """One branch arm: its function (qualified name and the line its code
    object starts on), label, the lines whose running shows it ran, its
    body's line span, whether it is an :data:`ERROR` arm, and the key of
    the arm it sits in (None at the top of its function)."""

    path: str
    qualname: str
    function_first: int
    label: str
    entry: Tuple[int, ...]
    first: int
    last: int
    error: bool
    within: Optional[str]

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}::{self.label}"


def _first_line(statement: ast.stmt) -> int:
    decorators = getattr(statement, "decorator_list", [])
    return min([d.lineno for d in decorators] + [statement.lineno])


def _entry(statement: ast.stmt) -> Tuple[int, ...]:
    """The lines of a statement's header: all of a simple statement, a
    compound one's up to its body (``try:`` adds its body's entry)."""
    if isinstance(statement, ast.Match):
        end = statement.cases[0].pattern.lineno - 1
    elif isinstance(statement, (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
                                ast.AsyncWith, ast.Try, ast.FunctionDef,
                                ast.AsyncFunctionDef, ast.ClassDef)):
        end = statement.body[0].lineno - 1
    else:
        end = statement.end_lineno
    lines = tuple(range(_first_line(statement), max(end, statement.lineno) + 1))
    if isinstance(statement, ast.Try):
        lines += _entry(statement.body[0])
    return lines


def arms(source: str, path: str = "") -> List[Arm]:
    """Every arm of every function defined in ``source``, in source order.
    Qualified names follow :func:`functions`; arms outside a function (a
    module or class body) are not listed."""
    text = source.splitlines()
    found: List[Arm] = []
    labels: Dict[str, int] = {}

    def add(function, label, body, error, within) -> str:
        qualname, function_first = function
        labels[f"{qualname}::{label}"] = count = labels.get(f"{qualname}::{label}", 0) + 1
        if count > 1:
            label = f"{label} #{count}"
        arm = Arm(path, qualname, function_first, label, _entry(body[0]),
                  _first_line(body[0]), body[-1].end_lineno,
                  error or isinstance(body[-1], ast.Raise), within)
        found.append(arm)
        return arm.key

    def block(statements, function, prefix, within) -> None:
        for statement in statements:
            visit(statement, function, prefix, within)

    def branch(function, prefix, within, label, body, error=False) -> None:
        key = add(function, label, body, error, within) if function else None
        block(body, function, prefix, key)

    def visit(node, function, prefix, within) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (prefix + node.name, _first_line(node))
            block(node.body, inner, prefix + node.name + ".", None)
        elif isinstance(node, ast.ClassDef):
            block(node.body, None, prefix + node.name + ".", None)
        elif isinstance(node, ast.If):
            label = f"if {ast.unparse(node.test)}"
            branch(function, prefix, within, label, node.body)
            orelse = node.orelse
            if (len(orelse) == 1 and isinstance(orelse[0], ast.If)
                    and text[orelse[0].lineno - 1].lstrip().startswith("elif")):
                visit(orelse[0], function, prefix, within)
            elif orelse:
                branch(function, prefix, within, f"else of {label}", orelse)
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            label = (f"while {ast.unparse(node.test)}" if isinstance(node, ast.While)
                     else f"for {ast.unparse(node.target)} in {ast.unparse(node.iter)}")
            branch(function, prefix, within, label, node.body)
            if node.orelse:
                branch(function, prefix, within, f"else of {label}", node.orelse)
        elif isinstance(node, ast.Try):
            block(node.body, function, prefix, within)
            for handler in node.handlers:
                label = "except" + (f" {ast.unparse(handler.type)}" if handler.type else "")
                branch(function, prefix, within, label, handler.body, error=True)
            if node.orelse:
                branch(function, prefix, within, "else of try", node.orelse)
            block(node.finalbody, function, prefix, within)
        elif isinstance(node, ast.Match):
            for case in node.cases:
                guard = f" if {ast.unparse(case.guard)}" if case.guard else ""
                branch(function, prefix, within, f"case {ast.unparse(case.pattern)}{guard}",
                    case.body)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            block(node.body, function, prefix, within)

    block(ast.parse(source).body, None, "", None)
    return found


def unrun_arms(source: str, path: str, hits: Set[int], reached: Set[int]) -> List[Arm]:
    """The arms of ``source`` that did not run in a reached function.

    ``hits`` are the lines that ran and ``reached`` the first lines of
    the functions that were called (:attr:`Function.first`).  An arm
    inside an arm that did not run is not listed: it follows that arm.
    """
    every = arms(source, path)
    ran = {arm.key for arm in every if hits.intersection(arm.entry)}
    return [
        arm for arm in every
        if arm.function_first in reached and arm.key not in ran
        and (arm.within is None or arm.within in ran)
    ]


def stale_arm_keys(unrun: Iterable[Arm], reasons=None) -> List[str]:
    """The arm keys of ``reasons`` (:data:`REASONS` by default) that name
    no gated arm that did not run."""
    gated = {arm.key for arm in unrun if not arm.error}
    return [key for _, _, keys, _ in (REASONS if reasons is None else reasons)
            for key in keys if _is_arm_key(key) and key not in gated]


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


@contextlib.contextmanager
def tracing(reached: set, hits: Dict[str, set]):
    """While the block runs, add to ``reached`` the (file, first line) of
    every code object under ``src/repro`` that is called, and to
    ``hits[file]`` every line of the package that runs."""
    package = str(PACKAGE) + os.sep
    tracers: Dict[object, object] = {}

    def line_tracer(lines: set):
        add = lines.add

        def trace_lines(frame, event, _):
            if event == "line":
                add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, _):
        code = frame.f_code
        if code not in tracers:
            file = code.co_filename
            if file.startswith(package):
                path = Path(file).relative_to(PACKAGE).as_posix()
                reached.add((path, code.co_firstlineno))
                tracers[code] = line_tracer(hits.setdefault(path, set()))
            else:
                tracers[code] = None
        return tracers[code]

    sys.settrace(trace_calls)
    try:
        yield
    finally:
        sys.settrace(None)


def run_user_paths(reads: set) -> Tuple[set, Dict[str, set]]:
    """Run every user path under the tracer: the (file, first line) of
    every code object under ``src/repro`` that was called, and the lines
    that ran by file; adds to ``reads`` the config field reads made."""
    sys.path.insert(0, str(SRC))
    reached: set = set()
    hits: Dict[str, set] = {}
    with tempfile.TemporaryDirectory(prefix="census-") as tmp, recording_config_reads(reads):
        for paths in (_cli_paths(tmp), _example_paths(), _tutorial_paths(), _ledger_paths()):
            for label, body in paths:
                with tracing(reached, hits):
                    wall = _quiet(body)
                print(f"  {wall:6.1f} s  {label}", flush=True)
    return reached, hits


# ---------------------------------------------------------------------- #
# report
# ---------------------------------------------------------------------- #
def _line_count(spans) -> int:
    return len({n for first, last in spans for n in range(first, last + 1)})


def report(unreached: List[Function], total: Dict[str, int], listing: bool) -> None:
    by_file: Dict[str, List[Function]] = {}
    for function in unreached:
        by_file.setdefault(function.path, []).append(function)
    print(f"\n{'file':<36}{'unreached':>10}{'of':>5}{'lines':>7}")
    lines_total = 0
    for path in sorted(by_file):
        lines = _line_count((f.first, f.last) for f in by_file[path])
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


def report_arms(unrun: List[Arm], counted: int, listing: bool) -> None:
    by_file: Dict[str, List[Arm]] = {}
    for arm in unrun:
        by_file.setdefault(arm.path, []).append(arm)
    print(f"\n{'file':<36}{'unrun arms':>11}{'lines':>7}{ERROR:>7}{'lines':>7}")
    totals = [0, 0, 0, 0]
    for path in sorted(by_file):
        gated = [(a.first, a.last) for a in by_file[path] if not a.error]
        error = [(a.first, a.last) for a in by_file[path] if a.error]
        row = [len(gated), _line_count(gated), len(error), _line_count(error)]
        totals = [t + n for t, n in zip(totals, row)]
        print(f"{path:<36}{row[0]:>11}{row[1]:>7}{row[2]:>7}{row[3]:>7}")
    print(f"{'total':<36}{totals[0]:>11}{totals[1]:>7}{totals[2]:>7}{totals[3]:>7}")
    kinds: Dict[str, int] = {}
    for arm in unrun:
        kind = arm_kind(arm) or "(none)"
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"\narms of reached functions: {counted}; unrun by reason: "
          + ", ".join(f"{k} {n}" for k, n in sorted(kinds.items())))
    if listing:
        print()
        for arm in unrun:
            print(f"{arm_kind(arm) or '-':<10}{arm.key}  (lines {arm.first}-{arm.last})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if an unreached function, an unrun arm or a config "
                             "field read with one value has no reason, or a key is stale")
    parser.add_argument("--list", action="store_true",
                        help="print every unreached function and unrun arm with its "
                             "reason kind")
    args = parser.parse_args(argv)

    print("user paths:", flush=True)
    reads: set = set()
    reached, hits = run_user_paths(reads)
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

    unrun: List[Arm] = []
    counted = 0
    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(PACKAGE).as_posix()
        started = {first for where, first in reached if where == path}
        source = file.read_text()
        counted += sum(arm.function_first in started for arm in arms(source, path))
        unrun += unrun_arms(source, path, hits.get(path, set()), started)
    report_arms(unrun, counted, args.list)
    unreasoned_arms = [arm for arm in unrun if arm_kind(arm) is None]
    if unreasoned_arms:
        print(f"\n{len(unreasoned_arms)} unrun arm(s) with no reason in REASONS:")
        for arm in unreasoned_arms:
            print(f"  {arm.key}")
    stale_arms = stale_arm_keys(unrun)
    if stale_arms:
        print(f"\n{len(stale_arms)} REASONS arm key(s) that name no unrun arm "
              "(it ran, or it is gone):")
        for key in stale_arms:
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
    failed = missing or stale or unreasoned_arms or stale_arms or unreasoned or in_use
    return 1 if args.check and failed else 0


if __name__ == "__main__":
    sys.exit(main())
