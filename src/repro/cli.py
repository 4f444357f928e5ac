"""Command-line interface.

Exposes the reproduction's main entry points without writing Python::

    python -m repro case-study                 # Tables 2-5 + Experiments A-D
    python -m repro experiment A               # one experiment, full trace
    python -m repro lvn --time 4pm             # the LVN weight table
    python -m repro simulate --cache dma ...   # a service-level workload run
    python -m repro placement --check          # placement-policy comparison + gates
    python -m repro obs --format jsonl         # telemetry of an instrumented run
    python -m repro chaos --seed 7             # seeded fault storm + resilience report
    python -m repro sweep-cluster-size         # the X4 ablation summary

Every subcommand prints plain text to stdout and exits 0 on success; bad
arguments exit 2 (argparse) and reproduction mismatches exit 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.service import ServiceConfig
from repro.placement.base import PLACEMENT_KINDS, PlacementConfig
from repro.experiments.casestudy import (
    EXPERIMENTS,
    compute_table3_lvn,
    run_all_experiments,
    run_experiment,
)
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.experiments.report import (
    render_experiment,
    render_table,
    render_table2,
    render_table3,
)
from repro.network.grnet import GRNET_NODES, SAMPLE_TIMES
from repro.workload.scenarios import regional_scenario


def _add_fast_path_arguments(subparser: argparse.ArgumentParser) -> None:
    """Admission-queue knobs shared by run subcommands."""
    group = subparser.add_argument_group("fast path")
    group.add_argument(
        "--admission-queue-capacity", type=int, default=0, metavar="N",
        help="enable the load-leveling admission queue with N waiting "
             "slots (0 disables; excess arrivals are shed)",
    )
    group.add_argument(
        "--admission-rate", type=float, default=100.0, metavar="R",
        help="admission-queue drain rate in admissions per simulated second",
    )
    group.add_argument(
        "--admission-tick", type=float, default=1.0, metavar="S",
        help="admission-queue drain-tick width in simulated seconds",
    )


def _fast_path_config_kwargs(args: argparse.Namespace) -> dict:
    """Map the shared fast-path CLI knobs onto ``ServiceConfig`` fields."""
    return {
        "admission_queue_capacity": args.admission_queue_capacity,
        "admission_rate_per_s": args.admission_rate,
        "admission_tick_s": args.admission_tick,
    }


def _add_placement_arguments(subparser: argparse.ArgumentParser) -> None:
    """Placement-policy knobs shared by ``simulate`` and ``placement``."""
    group = subparser.add_argument_group("placement")
    group.add_argument(
        "--prefix-minutes", type=float, default=10.0, metavar="MIN",
        help="prefix length cached for hot titles under --placement=prefix",
    )
    group.add_argument(
        "--hot-points", type=int, default=2, metavar="N",
        help="popularity points before a title earns a prefix copy "
             "(--placement=prefix)",
    )
    group.add_argument(
        "--partial-floor", type=float, default=0.1, metavar="FRACTION",
        help="minimum cached fraction per admitted title under "
             "--placement=partial",
    )


def _placement_config_from(args: argparse.Namespace, kind: str) -> PlacementConfig:
    """Build the single placement config object from the shared CLI knobs."""
    if kind == "prefix":
        return PlacementConfig(
            kind="prefix",
            prefix_minutes=args.prefix_minutes,
            hot_points=args.hot_points,
        )
    if kind == "partial":
        return PlacementConfig(kind="partial", partial_floor=args.partial_floor)
    return PlacementConfig(kind="dma")


def _add_telemetry_arguments(subparser: argparse.ArgumentParser) -> None:
    """The telemetry file option shared by run subcommands."""
    subparser.add_argument(
        "--telemetry-out", metavar="FILE", default=None,
        help="write the run's telemetry (manifest + rows + footer) to "
             "FILE behind the run: spans as they close, sampler rings as "
             "they fill.  JSONL by default, CSV when FILE ends in .csv.  "
             "Enables observability for the run",
    )


def _streaming_hook(open_target, seed: int, label: str):
    """(service hook, state box): the hook starts a
    :class:`~repro.obs.stream.StreamingTelemetry` over the sink
    ``open_target()`` returns on the freshly built service; the caller
    finishes it after the run via ``box["streamer"]``."""
    from repro.obs.stream import StreamingTelemetry

    box: dict = {}

    def hook(service) -> None:
        box["streamer"] = StreamingTelemetry(service, open_target(), seed=seed, label=label)
        box["streamer"].start()

    return hook, box


def _telemetry_hook(args: argparse.Namespace, label: str):
    """:func:`_streaming_hook` over a ``--telemetry-out`` file sink, or
    (None, {}) without one."""
    if args.telemetry_out is None:
        return None, {}
    from repro.obs.sink import open_sink

    fmt = "csv" if args.telemetry_out.endswith(".csv") else "jsonl"
    return _streaming_hook(lambda: open_sink(args.telemetry_out, fmt), args.seed, label)


def _finish_telemetry(args: argparse.Namespace, box: dict) -> None:
    """Drain and close the streaming sink; print the footer line."""
    streamer = box.get("streamer")
    if streamer is None:
        return
    footer = streamer.finish()
    print(
        f"telemetry: {footer['rows_written']} rows written to "
        f"{args.telemetry_out} ({footer['rows_skipped']} skipped, "
        f"{footer['spans_flushed']} spans flushed live, "
        f"{footer['samples_spilled']} samples spilled, "
        f"peak {footer['peak_resident_rows']} resident rows)"
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Dynamic Distributed Video on Demand "
            "Service' (Bouras et al., ICDCS 2000)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "case-study",
        help="print Tables 2-5 and Experiments A-D next to the paper's values",
    )

    experiment = commands.add_parser(
        "experiment", help="run one case-study experiment with its Dijkstra trace"
    )
    experiment.add_argument("exp_id", choices=sorted(EXPERIMENTS), metavar="{A,B,C,D}")

    lvn = commands.add_parser("lvn", help="print the LVN weight table (Table 3 column)")
    lvn.add_argument("--time", choices=SAMPLE_TIMES, default="8am")
    lvn.add_argument(
        "--normalization-constant",
        type=float,
        default=10.0,
        help="the K of equation (4); the paper suggests 10",
    )

    simulate = commands.add_parser(
        "simulate", help="run a service-level workload on GRNET and print metrics"
    )
    simulate.add_argument("--cache", default="dma",
                          choices=["dma", "dma-greedy", "nocache", "lru", "fullrep"])
    simulate.add_argument("--placement", default="dma",
                          choices=list(PLACEMENT_KINDS),
                          help="placement policy for the default cache: the "
                               "paper's whole-title DMA, prefix replication, "
                               "or popularity-weighted partial caching "
                               "(requires --cache=dma)")
    simulate.add_argument("--selection", default="vra",
                          choices=["vra", "random", "minhop", "static"])
    simulate.add_argument("--switching", default="always",
                          help="'always', 'never' or 'period:<n>'")
    simulate.add_argument("--catalog-size", type=int, default=18)
    simulate.add_argument("--title-mb", type=float, default=150.0,
                          help="uniform title size; keep below the per-server cache")
    simulate.add_argument("--title-minutes", type=float, default=60.0)
    simulate.add_argument("--requests-per-node", type=int, default=30)
    simulate.add_argument("--zipf", type=float, default=1.0)
    simulate.add_argument("--cluster-mb", type=float, default=50.0)
    simulate.add_argument("--disk-capacity-mb", type=float, default=250.0)
    simulate.add_argument("--disk-count", type=int, default=3)
    simulate.add_argument("--seed", type=int, default=23)
    simulate.add_argument("--replay-table2", action="store_true",
                          help="morph background traffic through the Table 2 day")
    simulate.add_argument("--topology", metavar="FILE", default=None,
                          help="JSON topology (see 'repro export-grnet'); "
                               "defaults to the paper's GRNET backbone")
    simulate.add_argument("--report", action="store_true",
                          help="print per-server/link/title analysis after the run")
    _add_placement_arguments(simulate)
    _add_fast_path_arguments(simulate)
    _add_telemetry_arguments(simulate)

    placement = commands.add_parser(
        "placement",
        help="compare the placement policies (DMA, prefix, partial) on GRNET",
    )
    placement.add_argument("--requests-per-node", type=int, default=12)
    placement.add_argument("--catalog-size", type=int, default=12)
    placement.add_argument("--seed", type=int, default=23)
    placement.add_argument("--title-mb", type=float, default=400.0,
                           help="uniform title size; the default overflows "
                                "the per-server cache so placement matters")
    placement.add_argument("--title-minutes", type=float, default=60.0)
    placement.add_argument("--cluster-mb", type=float, default=50.0)
    placement.add_argument("--disk-count", type=int, default=2)
    placement.add_argument("--disk-capacity-mb", type=float, default=500.0)
    placement.add_argument("--check", action="store_true",
                           help="also run the replay gate: the DMA run must "
                                "reproduce byte-identically; exit 1 on "
                                "gate failure")
    _add_placement_arguments(placement)

    obs = commands.add_parser(
        "obs",
        help="run an observability-enabled GRNET workload and export its telemetry",
    )
    obs.add_argument("--format", choices=["summary", "jsonl", "csv"],
                     default="summary",
                     help="operator summary (default) or machine-readable export")
    obs.add_argument("--out", metavar="FILE", default=None,
                     help="write the jsonl/csv export to FILE instead of stdout")
    obs.add_argument("--trace-out", metavar="FILE", default=None,
                     help="also write the run's trace and span rows as JSONL")
    obs.add_argument("--timeline", metavar="FAMILY", default=None,
                     help="print a sparkline timeline of one sampled gauge "
                          "family, e.g. link.utilization")
    obs.add_argument("--scenario", choices=["regional", "flash-crowd"],
                     default="regional")
    obs.add_argument("--requests-per-node", type=int, default=12)
    obs.add_argument("--catalog-size", type=int, default=8)
    obs.add_argument("--sample-period", type=float, default=60.0,
                     help="simulated seconds between telemetry samples")
    obs.add_argument("--seed", type=int, default=23)
    _add_fast_path_arguments(obs)

    chaos = commands.add_parser(
        "chaos",
        help="run a seeded fault storm on GRNET and print the resilience report",
    )
    chaos.add_argument("--seed", type=int, default=42,
                       help="master seed for workload and fault schedule")
    chaos.add_argument("--duration-hours", type=float, default=4.0,
                       help="fault/workload horizon in simulated hours")
    chaos.add_argument("--requests-per-node", type=int, default=30)
    chaos.add_argument("--link-flap-rate", type=float, default=2.0,
                       metavar="PER_H", help="link failures per hour")
    chaos.add_argument("--link-degrade-rate", type=float, default=2.0,
                       metavar="PER_H", help="bandwidth shortages per hour")
    chaos.add_argument("--server-crash-rate", type=float, default=1.0,
                       metavar="PER_H", help="server crashes per hour")
    chaos.add_argument("--disk-failure-rate", type=float, default=0.5,
                       metavar="PER_H", help="disk failures per hour")
    chaos.add_argument("--snmp-blackout-rate", type=float, default=0.5,
                       metavar="PER_H", help="collector blackouts per hour")
    chaos.add_argument("--mean-fault-duration", type=float, default=300.0,
                       metavar="S", help="mean fault window length (s)")
    chaos.add_argument("--retry-attempts", type=int, default=5,
                       help="session retry budget per cluster boundary")
    chaos.add_argument("--retry-backoff", type=float, default=20.0,
                       metavar="S", help="first retry delay (s)")
    chaos.add_argument("--failover", action="store_true",
                       help="enable the mid-stream session-failover "
                            "supervisor")
    chaos.add_argument("--failover-backoff", type=float, default=15.0,
                       metavar="S",
                       help="wait between failover re-decide attempts (s)")
    chaos.add_argument("--breaker-threshold", type=int, default=0,
                       metavar="N",
                       help="circuit-breaker trip threshold (failures per "
                            "window); 0 disables breakers")
    chaos.add_argument("--breaker-window", type=float, default=600.0,
                       metavar="S", help="breaker failure-count window (s)")
    chaos.add_argument("--breaker-cooldown", type=float, default=300.0,
                       metavar="S",
                       help="open-state dwell before the half-open probe (s)")
    chaos.add_argument("--max-stats-age", type=float, default=None,
                       metavar="S",
                       help="staleness guard: SNMP samples older than this "
                            "inflate their link's weight and mark decisions "
                            "degraded")
    chaos.add_argument("--min-availability", type=float, default=None,
                       metavar="FRACTION",
                       help="exit 1 if completed/finished sessions falls "
                            "below this floor (CI smoke gate)")
    chaos.add_argument("--min-recovered", type=int, default=None,
                       metavar="N",
                       help="exit 1 if fewer than N sessions recovered "
                            "(retry recoveries + mid-stream failovers)")
    chaos.add_argument("--max-p95-stall-s", type=float, default=None,
                       metavar="S",
                       help="exit 1 if the p95 total stall of completed "
                            "sessions exceeds this bound (s)")
    chaos.add_argument("--json", action="store_true",
                       help="print the report as JSON instead of text")
    chaos.add_argument("--show-faults", action="store_true",
                       help="also print the chronological fault log")
    _add_telemetry_arguments(chaos)

    sweep = commands.add_parser(
        "sweep-cluster-size",
        help="the X4 ablation: switching granularity vs congestion damage",
    )
    sweep.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the sweep points (default: one per "
        "CPU; 1 = serial; output is identical at any job count)",
    )

    export = commands.add_parser(
        "export-grnet",
        help="write the paper's GRNET topology to a JSON file as a template",
    )
    export.add_argument("path", metavar="FILE")
    export.add_argument("--time", choices=SAMPLE_TIMES, default=None,
                        help="also bake in one Table 2 traffic column")
    return parser


def _cmd_case_study() -> int:
    print(render_table2())
    print()
    print(render_table3())
    outcomes = run_all_experiments()
    for outcome in outcomes.values():
        print()
        print("=" * 72)
        print(render_experiment(outcome))
    mismatches = [o for o in outcomes.values() if not o.matches_corrected]
    return 1 if mismatches else 0


def _cmd_experiment(exp_id: str) -> int:
    outcome = run_experiment(exp_id)
    print(render_experiment(outcome))
    return 0 if outcome.matches_corrected else 1


def _cmd_lvn(time_label: str, k: float) -> int:
    table = compute_table3_lvn(normalization_constant=k)
    rows = [
        [link_name, f"{values[time_label]:.6f}"]
        for link_name, values in table.items()
    ]
    print(
        render_table(
            ["Link", f"LVN @{time_label} (K={k:g})"],
            rows,
            title="Link Validation Numbers (equations 1-4)",
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.storage.video import VideoTitle

    if args.placement != "dma" and args.cache != "dma":
        raise SystemExit(
            "--placement overrides the default cache policy; "
            "it cannot be combined with --cache=" + args.cache
        )
    topology_factory = None
    if args.topology is not None:
        from repro.io import load_topology

        custom = load_topology(args.topology)
        custom.validate()
        nodes = custom.node_uids()

        def topology_factory():
            return load_topology(args.topology)

    else:
        nodes = list(GRNET_NODES)
    catalog = [
        VideoTitle(
            f"title-{i:03d}",
            size_mb=args.title_mb,
            duration_s=args.title_minutes * 60.0,
        )
        for i in range(1, args.catalog_size + 1)
    ]
    scenario = regional_scenario(
        nodes,
        requests_per_node=args.requests_per_node,
        zipf_exponent=args.zipf,
        seed=args.seed,
        catalog=catalog,
    )
    hook, telemetry_box = _telemetry_hook(args, label="simulate")
    experiment = ServiceExperiment(
        name="cli",
        scenario=scenario,
        config=ServiceConfig(
            cluster_mb=args.cluster_mb,
            disk_count=args.disk_count,
            disk_capacity_mb=args.disk_capacity_mb,
            max_streams=64,
            use_reported_stats=False,
            observability=args.telemetry_out is not None,
            placement=_placement_config_from(args, args.placement),
            **_fast_path_config_kwargs(args),
        ),
        cache=args.cache,
        selection=args.selection,
        switching=args.switching,
        replay_table2=args.replay_table2,
        start_time=8 * 3600.0 if args.replay_table2 else 0.0,
        seed=args.seed,
        service_hook=hook,
    )
    if topology_factory is not None:
        experiment.topology_factory = topology_factory
    result = run_service_experiment(experiment)
    _finish_telemetry(args, telemetry_box)
    metrics = result.metrics
    print(f"sessions ............. {metrics.session_count}")
    print(f"completed ............ {metrics.completed_count}")
    print(f"failed ............... {metrics.failed_count}")
    print(f"local serve fraction . {metrics.local_serve_fraction:.3f}")
    print(f"mean startup ......... {metrics.mean_startup_s:.1f} s")
    print(f"p95 startup .......... {metrics.p95_startup_s:.1f} s")
    print(f"mean stall ........... {metrics.mean_stall_s:.1f} s")
    print(f"server switches ...... {metrics.total_switches}")
    print(f"QoS violations ....... {metrics.qos_violation_fraction:.3f}")
    print(f"transport cost ....... {metrics.megabyte_hops:.0f} MB-hops")
    service = result.service
    if service.admission_queue is not None:
        from repro.experiments.report import render_admission_queue

        print()
        print(
            render_admission_queue(
                service.admission_queue.stats, title="Admission queue"
            )
        )
    if args.report:
        from repro.metrics.analysis import analyze_sessions, render_analysis

        print()
        print(render_analysis(analyze_sessions(result.service.sessions)))
    return 0


def _cmd_placement(args: argparse.Namespace) -> int:
    from repro.experiments.placement import (
        render_placement_comparison,
        run_placement_experiment,
    )

    comparison = run_placement_experiment(
        requests_per_node=args.requests_per_node,
        catalog_size=args.catalog_size,
        seed=args.seed,
        title_mb=args.title_mb,
        title_minutes=args.title_minutes,
        cluster_mb=args.cluster_mb,
        disk_count=args.disk_count,
        disk_capacity_mb=args.disk_capacity_mb,
        prefix_minutes=args.prefix_minutes,
        partial_floor=args.partial_floor,
        hot_points=args.hot_points,
        check=args.check,
    )
    print(render_placement_comparison(comparison))
    if not comparison.gates_passed:
        print("placement replay gate failed", file=sys.stderr)
        return 1
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_timeline
    from repro.obs.export import sample_series, summarize_telemetry
    from repro.obs.sink import MemoryTelemetrySink, open_sink
    from repro.sim.trace import Tracer
    from repro.storage.video import VideoTitle
    from repro.workload.scenarios import flash_crowd_scenario

    catalog = [
        VideoTitle(f"title-{i:03d}", size_mb=150.0, duration_s=3600.0)
        for i in range(1, args.catalog_size + 1)
    ]
    if args.scenario == "flash-crowd":
        scenario = flash_crowd_scenario(
            GRNET_NODES[0],
            catalog[0],
            viewer_count=args.requests_per_node * len(GRNET_NODES),
            seed=args.seed,
        )
    else:
        scenario = regional_scenario(
            list(GRNET_NODES),
            requests_per_node=args.requests_per_node,
            seed=args.seed,
            catalog=catalog,
        )
    # One row stream: the tracer and the streamer share one memory sink,
    # which the summary reads and the exports copy through a file sink.
    sink = MemoryTelemetrySink()
    hook, box = _streaming_hook(lambda: sink, args.seed, f"obs:{args.scenario}")
    experiment = ServiceExperiment(
        name="obs",
        scenario=scenario,
        config=ServiceConfig(
            cluster_mb=50.0,
            disk_count=3,
            disk_capacity_mb=250.0,
            max_streams=64,
            use_reported_stats=False,
            observability=True,
            telemetry_period_s=args.sample_period,
            **_fast_path_config_kwargs(args),
        ),
        seed=args.seed,
        tracer=Tracer(sink=sink),
        service_hook=hook,
    )
    service = run_service_experiment(experiment).service
    box["streamer"].finish()

    if args.format == "summary":
        print(summarize_telemetry(service.obs, sink))
    else:
        out = open_sink(args.out if args.out is not None else sys.stdout, args.format)
        sink.copy_to(out)
        if args.out is not None:
            print(
                f"wrote {out.written} {args.format} rows to {args.out} "
                f"({out.skipped} skipped)"
            )

    if args.trace_out is not None:
        out = open_sink(args.trace_out, "jsonl")
        sink.copy_to(out, kinds=("trace", "span"))
        print(f"wrote {out.written} trace and span rows to {args.trace_out}")

    if args.timeline is not None:
        rows = [
            (",".join(map(str, labels.values())) or args.timeline, series)
            for labels, series in sample_series(sink.rows, args.timeline)
        ]
        print(render_timeline(rows, title=f"{args.timeline} timeline"))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.resilience import (
        render_resilience_report,
        run_resilience_experiment,
    )

    config = ServiceConfig(
        retry_attempts=args.retry_attempts,
        retry_backoff_s=args.retry_backoff,
        session_failover=args.failover,
        failover_backoff_s=args.failover_backoff,
        breaker_threshold=args.breaker_threshold,
        breaker_window_s=args.breaker_window,
        breaker_cooldown_s=args.breaker_cooldown,
        max_stats_age_s=args.max_stats_age,
        observability=args.telemetry_out is not None,
    )
    hook, telemetry_box = _telemetry_hook(args, label="chaos")
    run = run_resilience_experiment(
        seed=args.seed,
        duration_s=args.duration_hours * 3600.0,
        requests_per_node=args.requests_per_node,
        link_flap_rate_per_h=args.link_flap_rate,
        link_degrade_rate_per_h=args.link_degrade_rate,
        server_crash_rate_per_h=args.server_crash_rate,
        disk_failure_rate_per_h=args.disk_failure_rate,
        snmp_blackout_rate_per_h=args.snmp_blackout_rate,
        mean_fault_duration_s=args.mean_fault_duration,
        config=config,
        service_hook=hook,
    )
    _finish_telemetry(args, telemetry_box)
    report = run.report
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_resilience_report(report))
    if args.show_faults:
        print()
        for entry in run.injector.log:
            print(
                f"{entry['at_s']:10.1f} s  {entry['action']:<7} "
                f"{entry['kind']:<14} {entry['target']}"
            )
    failed_gate = False
    if (
        args.min_availability is not None
        and report.availability < args.min_availability
    ):
        print(
            f"availability {report.availability:.2%} below floor "
            f"{args.min_availability:.2%}",
            file=sys.stderr,
        )
        failed_gate = True
    recovered_total = report.recovered_sessions + report.sessions_failed_over
    if args.min_recovered is not None and recovered_total < args.min_recovered:
        print(
            f"recovered sessions {recovered_total} below floor "
            f"{args.min_recovered}",
            file=sys.stderr,
        )
        failed_gate = True
    if (
        args.max_p95_stall_s is not None
        and report.p95_stall_s > args.max_p95_stall_s
    ):
        print(
            f"p95 stall {report.p95_stall_s:.1f} s above bound "
            f"{args.max_p95_stall_s:.1f} s",
            file=sys.stderr,
        )
        failed_gate = True
    return 1 if failed_gate else 0


def _cmd_export_grnet(path: str, time_label: Optional[str]) -> int:
    from repro.io import save_topology
    from repro.network.grnet import apply_traffic_sample, build_grnet_topology

    topology = build_grnet_topology()
    if time_label is not None:
        apply_traffic_sample(topology, time_label)
    save_topology(topology, path)
    print(f"wrote {topology.node_count} nodes / {topology.link_count} links to {path}")
    return 0


def _cmd_sweep_cluster_size(jobs: Optional[int] = None) -> int:
    # Imported lazily: the helper lives with the benchmarks' scenario code.
    from repro.core.session import MIN_TRANSFER_MBPS
    from repro.experiments.sweeps import better_source_sweep

    rows = []
    for cluster_mb, record in better_source_sweep(jobs=jobs):
        duration_h = (record.completed_at - record.request.submitted_at) / 3600.0
        rows.append(
            [
                f"{cluster_mb:.0f}",
                str(len(record.clusters)),
                str(record.switch_count),
                f"{duration_h:.2f}",
                f"{record.stall_s / 60.0:.1f}",
            ]
        )
    print(
        render_table(
            ["c (MB)", "clusters", "switches", "download (h)", "stall (min)"],
            rows,
            title=(
                "Cluster-size sweep: 1.5 GB title, route congests at "
                f"t+20 min (floor rate {MIN_TRANSFER_MBPS} Mbps)"
            ),
        )
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "case-study":
            return _cmd_case_study()
        if args.command == "experiment":
            return _cmd_experiment(args.exp_id)
        if args.command == "lvn":
            return _cmd_lvn(args.time, args.normalization_constant)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "placement":
            return _cmd_placement(args)
        if args.command == "obs":
            return _cmd_obs(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "sweep-cluster-size":
            return _cmd_sweep_cluster_size(args.jobs)
        if args.command == "export-grnet":
            return _cmd_export_grnet(args.path, args.time)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
