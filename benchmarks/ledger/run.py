"""Perf ledger: four whole-run workloads, end to end and layer by layer.

Two ways in, one set of workloads and metric names:

``python benchmarks/ledger/run.py [--seed 42] [--repeats 5] [--workload NAME]
[--smoke] [--out FILE]``
    The ledger.  Per workload: ``--repeats`` untraced runs (medians and
    quartiles of the host timings; the sim metrics and the fingerprint must
    repeat exactly), one run at ``--alt-seed``, one traced run for the
    per-layer breakdown.  Prints every metric by name with its unit, checks
    the outputs, writes one JSON document to ``--out``.

``... --workload NAME --seed N --seconds S --trace 0|1``
    One measurement for the benchmark driver (``BENCHMARK.json``): the last
    line of stdout is ``{"correct", "attempted", "failed", "metrics"}`` with
    the end-to-end metrics (``--trace 0``) or the per-layer ones
    (``--trace 1``).

Every run of a workload is a fresh subprocess of this file (``--child``),
so ``peak_rss_mb`` and import cost are per run.  ``--seconds`` sets the
amount of work, not a deadline: a workload is a fixed, seeded schedule
scaled by ``seconds / 10``, so the sim metrics of two commits compare
exactly and a faster commit simply finishes sooner.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHILD_STARTED = time.perf_counter()  # setup_s counts from here in a child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
NOMINAL_SECONDS = 10.0
SMOKE_SECONDS = 1.2
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

# name -> why the workload exists (README.md has a paragraph on each).
WORKLOADS = {
    "grnet_day": "paper deployment on GRNET: session loop, flows and event engine do the work, routing almost none",
    "backbone200_churn": "200-node churning backbone: cold routing path, invalidation and SNMP collection dominate",
    "decision_burst": "control plane only: millions of memoized decide() calls, the read use of the memo layers",
    "chaos_storm": "every default-off knob on under a seeded fault storm: flag interaction and failure accounting",
}

# End-to-end metrics: name -> (time domain, better, regression bound).
# A host bound is a share of the parent's median; the sim metrics repeat
# exactly for a seed, so theirs only leaves room for an intended change.
END_TO_END = {
    "setup_s": ("host", "lower", "25 %"),
    "wall_s": ("host", "lower", "25 %"),
    "ops_per_s": ("host", "higher", "25 %"),
    "sessions_per_s": ("host", "higher", "25 %"),
    "decisions_per_s": ("host", "higher", "25 %"),
    "peak_rss_mb": ("host", "lower", "25 %"),
    "served_fraction": ("sim", "higher", "5 %"),
    "failed_fraction": ("sim", "lower", "+0.002 absolute"),
    "startup_p50_sim_s": ("sim", "lower", "1 %"),
    "startup_p99_sim_s": ("sim", "lower", "1 %"),
    "stall_p99_sim_s": ("sim", "lower", "1 %"),
    "qos_violation_fraction": ("sim", "lower", "1 %"),
    "transport_mb_hops": ("sim", "lower", "1 %"),
}

# The layers whose self time is "the routing stack" in the sizing picture.
ROUTING_STACK = (
    "core.vra", "network.routing.cache", "network.routing.decision_cache",
    "core.lvn_delta", "network.compiled", "core.lvn", "network.routing.dijkstra",
)


def unit_of(name: str) -> str:
    """The unit a metric name implies (the names carry their units)."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_us") or "_us_per_" in leaf:
        return "us"
    if leaf.endswith("_per_s"):
        return "1/s"
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("mb_hops"):
        return "MB.hops"
    if leaf.endswith("_mb"):
        return "MB"
    if leaf.endswith(("_ratio", "_fraction")):
        return "ratio"
    if leaf == "bytes":
        return "B"
    return "count"


# ---------------------------------------------------------------------- #
# child: one run of one workload in this process
# ---------------------------------------------------------------------- #
def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import resource

    import tracing
    import workloads

    tracer = None
    if args.child == "trace":
        tracer = tracing.Tracer()
        tracer.calibrate()
    scale = args.seconds / NOMINAL_SECONDS
    workload = workloads.BUILDERS[args.workload](args.seed, scale, tracer)
    result = {
        "setup_s": time.perf_counter() - CHILD_STARTED,
        "dropped_config": workload.dropped_config,
    }
    try:
        if args.child != "setup":
            workload.drive()
            segments = workload.segment_s
            result.update(workloads.outcomes(workload))
            result.update(
                # The timed region as it ran, and its steady estimate: with
                # many like segments (decision_burst's rounds) a segment
                # slowed by a neighbour on the host does not move the median.
                region_s=sum(segments),
                wall_s=len(segments) * statistics.median(segments),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                counters=tracing.counters(workload, result["sim"]),
                run_manifest=_run_manifest(workload.service, args.seed, args.workload),
            )
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(
                tracer, workload, result["sim"], result["attempted"],
                result["region_s"], args.untraced_region_s,
            )
            if args.spans_out:
                tracer.write_spans(args.spans_out)
        result["inputs_sha256"] = workload.inputs_sha256
    finally:
        if tracer is not None:
            tracer.uninstall()
        sink = getattr(workload.streamer, "sink", None)
        if sink is not None:  # the telemetry stream was this run's scratch
            sink.close()
            for part in sink.part_paths:
                Path(part).unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


def _run_manifest(service, seed: int, label: str):
    """PR 7's run manifest (code version, config sha256 and values,
    topology fingerprint), where this commit still has it."""
    try:
        from repro.obs.stream import run_manifest
    except ImportError:
        return None
    return run_manifest(service, seed=seed, label=label)


# ---------------------------------------------------------------------- #
# parent: spawn runs, reduce, check, report
# ---------------------------------------------------------------------- #
def spawn(workload: str, seed: int, seconds: float, mode: str, *extra: str) -> dict:
    """One fresh-process run; returns the child's result document."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        *extra,
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT)
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} ({mode}) exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(samples):
    """(median, q1, q3) of a sample; a single value is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median, q1, q3


def end_to_end(run: dict, setup_samples) -> dict:
    """The end-to-end metrics of one untraced run, by name."""
    sessions = "startup_p50_sim_s" in run["sim"]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": run["wall_s"],
        "ops_per_s": run["ops"] / run["wall_s"],
        ("sessions_per_s" if sessions else "decisions_per_s"): run["finished"] / run["wall_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics.update({k: v for k, v in run["sim"].items() if k in END_TO_END})
    return metrics


def compare_runs(runs, traced=None):
    """Output checks across the runs of one workload and seed."""
    problems = [p for run in runs for p in run["problems"]]
    first = runs[0]
    for run in runs[1:]:
        for key in ("fingerprint", "inputs_sha256", "sim", "counters"):
            if run[key] != first[key]:
                problems.append(f"{key} differs between repeats of the same seed")
    if traced is not None:
        problems += traced["problems"]
        for key in ("fingerprint", "sim", "counters"):
            if traced[key] != first[key]:
                problems.append(f"{key} of the traced run differs from the untraced runs")
    return problems


def spawn_traced(workload: str, args, untraced_region_s: float) -> dict:
    """The traced run; it is told the untraced region's time so that it
    can size the tracing overhead it subtracts."""
    extra = ["--untraced-region-s", repr(untraced_region_s)]
    if args.spans_out:
        extra += ["--spans-out", os.path.abspath(args.spans_out)]
    return spawn(workload, args.seed, args.seconds, "trace", *extra)


def sizing_checks(name: str, metrics: dict, layers: dict) -> dict:
    """The sizing picture each workload was chosen for (reference scale
    only; reported, never a failure)."""
    self_s = {k[: -len(".self_s")]: v or 0.0 for k, v in layers.items() if k.endswith(".self_s")}
    total = sum(self_s.values()) or 1.0
    if name == "grnet_day":
        share = sum(self_s.get(layer, 0.0) for layer in ROUTING_STACK) / total
        return {"routing_stack_self_share": share, "ok": share < 0.10}
    if name == "backbone200_churn":
        dijkstra = layers.get("network.compiled.dijkstra_self_s") or 0.0
        rival = max(v for k, v in self_s.items() if k != "network.compiled")
        return {"dijkstra_self_s": dijkstra, "largest_other_layer_self_s": rival,
                "ok": dijkstra >= rival}
    if name == "decision_burst":
        hit = layers.get("network.routing.decision_cache.hit_ratio") or 0.0
        evictions = layers.get("network.routing.decision_cache.evictions") or 0
        return {"hit_ratio": hit, "evictions": evictions, "ok": hit > 0.9 and evictions > 0}
    failed = metrics["failed_fraction"]
    return {"failed_fraction": failed, "ok": 0.0 < failed < 0.1}


def measure_workload(name: str, args) -> dict:
    """The ledger entry of one workload: repeats, alt seed, traced run."""
    runs = [spawn(name, args.seed, args.seconds, "run") for _ in range(args.repeats)]
    traced = spawn_traced(name, args, statistics.median(r["region_s"] for r in runs))
    problems = compare_runs(runs, traced)
    per_run = [end_to_end(run, [run["setup_s"]]) for run in runs]
    metrics = {}
    for key, (domain, better, bound) in END_TO_END.items():
        if key not in per_run[0]:
            continue
        metric = {"unit": unit_of(key), "domain": domain, "better": better, "bound": bound}
        if domain == "host":
            samples = [m[key] for m in per_run]
            metric["value"], metric["q1"], metric["q3"] = quartiles(samples)
            metric["n"], metric["samples"] = len(samples), samples
        else:
            metric["value"] = per_run[0][key]
        metrics[key] = metric
    layers = traced["layers"]
    entry = {
        "why": WORKLOADS[name],
        "seed": args.seed,
        "end_to_end": metrics,
        "fingerprint": runs[0]["fingerprint"],
        "inputs_sha256": runs[0]["inputs_sha256"],
        "attempted": runs[0]["attempted"],
        "failed": runs[0]["failed"],
        "per_layer": {
            key: {"value": value, "unit": unit_of(key)}
            if value is not None
            else {"value": None, "unit": unit_of(key), "absent": True}
            for key, value in sorted(layers.items())
        },
        "traced_wall_s": traced["region_s"],
        "code_version": (runs[0]["run_manifest"] or {}).get("code_version"),
        "config": {
            "effective": (runs[0]["run_manifest"] or {}).get("config"),
            "sha256": (runs[0]["run_manifest"] or {}).get("config_hash"),
            "dropped": runs[0]["dropped_config"],
        },
        "topology": (runs[0]["run_manifest"] or {}).get("topology"),
        "sizing": sizing_checks(
            name, {k: v["value"] for k, v in metrics.items()}, layers
        ),
    }
    if args.alt_seed is not None:
        alt = spawn(name, args.alt_seed, args.seconds, "run")
        problems += alt["problems"]
        if alt["fingerprint"] == runs[0]["fingerprint"]:
            problems.append(f"seed {args.alt_seed} gives the fingerprint of seed {args.seed}")
        entry["alt_seed"] = {
            "seed": args.alt_seed,
            "end_to_end": end_to_end(alt, [alt["setup_s"]]),
            "fingerprint": alt["fingerprint"],
        }
    entry["problems"] = problems
    return entry


def table3_error():
    """Max abs error of the recomputed Table 3 LVN cells vs the paper."""
    sys.path.insert(0, str(SRC))
    try:
        from repro.experiments.casestudy import table3_deltas
    except ImportError:
        return None
    return max(abs(cell.delta) for cell in table3_deltas())


def host_manifest(args) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "schema": 1,
        "seed": args.seed,
        "alt_seed": args.alt_seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "scale": args.seconds / NOMINAL_SECONDS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "loop": "closed: one process, one thread, the event engine drains a "
                "pre-generated schedule; generator lateness n/a",
        "caches": "every cache starts empty; decision_burst runs one untimed warm round",
    }


def print_table(name: str, entry: dict) -> None:
    print(f"\n== {name} (seed {entry['seed']}) fingerprint {entry['fingerprint'][:16]}")
    for key, metric in entry["end_to_end"].items():
        spread = (
            f"  [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n={metric['n']}]"
            if "q1" in metric else ""
        )
        alt = entry.get("alt_seed", {}).get("end_to_end", {}).get(key)
        beside = f"  (seed {entry['alt_seed']['seed']}: {alt:.6g})" if alt is not None else ""
        print(f"{key:<46}{metric['unit']:<9}{metric['value']:<14.6g}{metric['domain']}{spread}{beside}")
    for key, metric in entry["per_layer"].items():
        value = "absent" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{key:<46}{metric['unit']:<9}{value}")
    print(f"sizing: {json.dumps(entry['sizing'])}")
    for problem in entry["problems"]:
        print(f"PROBLEM: {problem}")


def ledger_main(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    document = {
        "manifest": host_manifest(args),
        "paper_table3_max_abs_err": table3_error(),
        "workloads": {},
    }
    for name in names:
        entry = measure_workload(name, args)
        document["workloads"][name] = entry
        print_table(name, entry)
    print(f"\npaper_table3_max_abs_err  {document['paper_table3_max_abs_err']}")
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    failed = [n for n, e in document["workloads"].items() if e["problems"]]
    if failed:
        print(f"output checks failed on: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def driver_main(args) -> int:
    """One ``--trace 0|1`` measurement in the driver's output contract."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = args.workload
    run = spawn(name, args.seed, args.seconds, "run")
    if args.trace:
        traced = spawn_traced(name, args, run["region_s"])
        problems = compare_runs([run], traced)
        values = traced["layers"]
        wanted = declared["per_layer"]
    else:
        # Set-up is cheap next to a run, so it is repeated in fresh
        # processes and reported as a median.
        setups = [spawn(name, args.seed, args.seconds, "setup") for _ in range(SETUP_SAMPLES - 1)]
        problems = compare_runs([run])
        # decision_burst draws its keys while it runs: no hash at set-up.
        if any(s["inputs_sha256"] not in ("", run["inputs_sha256"]) for s in setups):
            problems.append("the same seed generated different inputs")
        values = end_to_end(run, [s["setup_s"] for s in setups] + [run["setup_s"]])
        wanted = declared["end_to_end"]
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": values[m["name"]] or 0.0, "unit": m["unit"]} for m in wanted
    }
    print(json.dumps({
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--alt-seed", type=int, default=None,
                        help="second seed reported beside --seed (default: seed + 1)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="work per run: scale = seconds / 10")
    parser.add_argument("--smoke", action="store_true",
                        help=f"--seconds {SMOKE_SECONDS} --repeats 1, no alt seed")
    parser.add_argument("--out", metavar="FILE", default=None)
    parser.add_argument("--spans-out", metavar="FILE", default=None,
                        help="dump the traced run's spans as CSV")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: one measurement, JSON on the last line")
    parser.add_argument("--child", choices=("setup", "run", "trace"), default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--untraced-region-s", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.smoke:
        args.seconds, args.repeats = SMOKE_SECONDS, 1
    elif args.alt_seed is None and args.trace is None:
        args.alt_seed = args.seed + 1
    if args.workload is None and (args.trace is not None or args.spans_out):
        parser.error("--trace and --spans-out need --workload")
    if args.trace is not None:
        return driver_main(args)
    return ledger_main(args)


if __name__ == "__main__":
    sys.exit(main())
