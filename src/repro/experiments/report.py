"""ASCII rendering of the paper's tables.

The benchmarks print these next to the paper's values so a reader can eyeball
the reproduction without digging into assertion code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.casestudy import (
    CellDelta,
    ExperimentOutcome,
    compute_table2_utilization_percent,
    compute_table3_lvn,
)
from repro.core.admission_queue import AdmissionQueueStats
from repro.metrics.timeseries import TimeSeries
from repro.network import grnet
from repro.network.routing.dijkstra import DijkstraStep

#: Sparkline glyphs, blank through full block (9 levels).
_SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = "") -> str:
    """Fixed-width ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    rule = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(fmt(list(headers)))
    lines.append(rule)
    lines.extend(fmt(list(row)) for row in rows)
    return "\n".join(lines)


def render_table2(deltas: Optional[List[CellDelta]] = None) -> str:
    """Table 2 reproduction: per-link utilisation percent vs the paper."""
    computed = compute_table2_utilization_percent()
    paper = grnet.PAPER_TABLE2_UTILIZATION_PERCENT
    headers = ["Link"] + [
        f"{t} (ours/paper %)" for t in grnet.SAMPLE_TIMES
    ]
    rows = []
    for link_name, _, capacity in grnet.GRNET_LINKS:
        row = [f"{link_name} ({capacity:g}Mb)"]
        for t in grnet.SAMPLE_TIMES:
            row.append(f"{computed[link_name][t]:.4g} / {paper[link_name][t]:.4g}")
        rows.append(row)
    return render_table(headers, rows, title="Table 2 — link utilisation (eq. 5)")


def render_table3() -> str:
    """Table 3 reproduction: per-link LVN vs the paper."""
    computed = compute_table3_lvn()
    paper = grnet.PAPER_TABLE3_LVN
    headers = ["Link"] + [f"{t} (ours/paper)" for t in grnet.SAMPLE_TIMES]
    rows = []
    for link_name, _, _ in grnet.GRNET_LINKS:
        row = [link_name]
        for t in grnet.SAMPLE_TIMES:
            row.append(f"{computed[link_name][t]:.4f} / {paper[link_name][t]:.4f}")
        rows.append(row)
    return render_table(headers, rows, title="Table 3 — Link Validation Numbers (eqs. 1-4)")


def render_admission_queue(stats: AdmissionQueueStats, title: str = "") -> str:
    """Admission-queue counter table for experiment/benchmark reports.

    Args:
        stats: The load-leveling front-end's counters.
        title: Table caption; defaults to a generic one.
    """
    caption = title or "Admission queue — load-leveling front-end"
    headers = ["Counter", "Value"]
    rows = [
        ["Offered", str(stats.offered)],
        ["Admitted immediately", str(stats.immediate)],
        ["Delayed", str(stats.delayed)],
        ["Shed", str(stats.shed)],
        ["Shed rate", f"{stats.shed_rate:.2%}" if stats.offered else "-"],
        ["Mean wait", f"{stats.mean_wait_s:.1f} s"],
        ["Max wait", f"{stats.max_wait_s:.1f} s"],
        ["Queue high-water mark", str(stats.max_depth)],
        ["Drain cohorts", str(stats.batches)],
        ["Largest cohort", str(stats.max_batch)],
        ["Same-key coalesced", str(stats.coalesced)],
    ]
    return render_table(headers, rows, title=caption)


def render_dijkstra_trace(
    steps: Sequence[DijkstraStep],
    destinations: Sequence[str],
    title: str = "",
) -> str:
    """The paper's Tables 4-5 layout: one row per settled node.

    Args:
        steps: Trace rows from a traced Dijkstra run.
        destinations: Column order (the paper uses D3, D1, D4, D5, D6).
        title: Table caption.
    """
    headers = ["Step", "Nodes"]
    for uid in destinations:
        headers.extend([f"D{uid.lstrip('U')}", "Path"])
    rows = []
    for step in steps:
        row = [str(step.step), "{" + ",".join(step.settled) + "}"]
        for uid in destinations:
            row.append(step.distance_label(uid))
            row.append(step.path_label(uid))
        rows.append(row)
    return render_table(headers, rows, title=title)


def _sparkline(values: Sequence[float], width: int, peak: float) -> str:
    """Peak-preserving resample of non-empty ``values`` into ``width``
    glyph buckets."""
    top = len(_SPARK_BLOCKS) - 1
    cells: List[str] = []
    for bucket in range(width):
        lo = bucket * len(values) // width
        hi = max((bucket + 1) * len(values) // width, lo + 1)
        chunk = max(values[lo:hi])
        level = round(chunk / peak * top) if peak > 0.0 else 0
        cells.append(_SPARK_BLOCKS[min(max(level, 0), top)])
    return "".join(cells)


def render_timeline(
    rows: Sequence[Tuple[str, TimeSeries]],
    title: str = "",
    width: int = 60,
) -> str:
    """Labelled sparkline timelines of sampled gauge series.

    Built for the telemetry sampler's output: each row is a
    ``(label, series)`` pair (e.g. from
    :func:`~repro.obs.export.sample_series`), rendered as
    one sparkline resampled to ``width`` buckets (peak-preserving, so a
    short utilisation spike never disappears).  Every row is scaled
    against its own peak, annotated on the right.

    Args:
        rows: ``(label, TimeSeries)`` pairs; empty series are skipped.
        title: Caption printed above the block.
        width: Sparkline width in characters.
    """
    kept = [(label, series) for label, series in rows if len(series) > 0]
    lines: List[str] = []
    if title:
        lines.append(title)
    if not kept:
        lines.append("(no samples)")
        return "\n".join(lines)
    label_width = max(len(label) for label, _ in kept)
    for label, series in kept:
        values = series.values()
        peak = max(values)
        spark = _sparkline(values, width, peak)
        lines.append(f"{label.ljust(label_width)} |{spark}| peak {peak:g}")
    first = min(series.samples()[0][0] for _, series in kept)
    last = max(series.samples()[-1][0] for _, series in kept)
    lines.append(
        f"{''.ljust(label_width)}  t = {first:g} .. {last:g} s "
        f"({len(kept)} series)"
    )
    return "\n".join(lines)


def render_experiment(outcome: ExperimentOutcome) -> str:
    """Full experiment report: scenario, trace, candidates, decision."""
    spec = outcome.spec
    expectation = outcome.expectation
    lines = [
        f"Experiment {spec.exp_id}: {spec.description}",
        "",
    ]
    if outcome.steps:
        other_nodes = [
            uid
            for uid in ("U3", "U1", "U4", "U5", "U6", "U2")
            if uid != spec.home_uid
        ]
        lines.append(
            render_dijkstra_trace(
                outcome.steps,
                destinations=other_nodes,
                title=f"Dijkstra step table from {spec.home_uid} at {spec.time_label}",
            )
        )
        lines.append("")
    headers = ["Candidate", "Best path (ours)", "Cost (ours)", "Path (paper)", "Cost (paper)"]
    rows = []
    for uid in sorted(outcome.candidate_costs):
        paper_path = expectation.printed_paths.get(uid)
        paper_cost = expectation.printed_costs.get(uid)
        rows.append(
            [
                uid,
                ",".join(outcome.candidate_paths[uid]),
                f"{outcome.candidate_costs[uid]:.4f}",
                ",".join(paper_path) if paper_path else "-",
                f"{paper_cost:.4f}" if paper_cost is not None else "-",
            ]
        )
    lines.append(render_table(headers, rows))
    lines.append("")
    lines.append(
        f"Decision (ours): download from {outcome.chosen_uid}; "
        f"paper printed {expectation.printed_chosen}; corrected expectation "
        f"{expectation.corrected_chosen}."
    )
    if expectation.erratum:
        lines.append(f"Erratum: {expectation.erratum}")
    return "\n".join(lines)
