"""Streaming telemetry: bounded memory, cheap write-behind.

The write-behind pipeline's two promises, pinned on the flash-crowd
workload:

1. Peak resident telemetry — what the streamer still holds in RAM (open
   spans + sampler-ring samples) — stays flat when the session count
   grows 10x.  The buffered exporter's span list would grow linearly;
   the streamer flushes each span the moment it closes, so the peak is
   O(concurrent sessions + ring capacity), not O(total sessions).
2. The *live* write-behind share stays below 3% of the run's wall time.
   Raw A/B wall-clock deltas drown in scheduler noise, so the bound is
   computed from measured parts: the rows whose writes land *inside*
   the run (spans flushed live + ring spills) x microbenched per-row
   sink cost, against the streamed run's measured wall time.  The
   finish-time drain of ring contents and instrument totals is the same
   export a buffered run performs, so it is not streaming overhead —
   but it is most of the artifact, so its cost is printed beside the
   gate (every row x the per-row cost, and the measured ``finish()``),
   together with the obs-on / obs-off wall ratio of the same crowd.
   Those are printed, not gated: a ratio of two ~50 ms runs is noise in
   CI, and the gate on a whole instrumented run is the perf ledger's
   ``chaos_storm`` ``wall_s``.
"""

import io
from time import perf_counter

from repro.core.service import ServiceConfig
from repro.experiments.harness import ServiceExperiment, run_service_experiment
from repro.obs.sink import JsonlTelemetrySink
from repro.obs.stream import StreamingTelemetry
from repro.storage.video import VideoTitle
from repro.workload.scenarios import flash_crowd_scenario

#: Same half-hour special as the other flash-crowd benchmarks.
SPECIAL = VideoTitle("special", size_mb=300.0, duration_s=1_800.0)

#: Acceptance bound: write-behind below 3% of the streamed run's time.
MAX_OVERHEAD_FRACTION = 0.03

#: Acceptance bound: peak resident rows may grow this much across a 10x
#: session-count increase (concurrent-session slack, not linear growth).
MAX_PEAK_GROWTH = 1.25


def run_streamed_crowd(viewer_count: int, path, observability: bool = True):
    """One flash-crowd run with the write-behind streamer attached.

    Returns ``(result, footer, wall, finish_s)``: ``wall`` is the run
    without the final drain, ``finish_s`` the drain (``finish()``) alone.
    """
    scenario = flash_crowd_scenario(
        "U2", SPECIAL, viewer_count=viewer_count, start_s=600.0, ramp_s=7_200.0
    )
    box = {}

    def hook(service):
        streamer = StreamingTelemetry(
            service,
            JsonlTelemetrySink(path),
            label=f"bench-stream-{viewer_count}",
        )
        streamer.start()
        box["streamer"] = streamer

    experiment = ServiceExperiment(
        name=f"stream-{viewer_count}",
        scenario=scenario,
        config=ServiceConfig(
            cluster_mb=100.0,
            disk_count=2,
            disk_capacity_mb=1_000.0,
            max_streams=256,
            use_reported_stats=False,
            observability=observability,
        ),
        seed_origin_uids=["U4"],
        run_until=12 * 3600.0,
        service_hook=hook,
    )
    started = perf_counter()
    result = run_service_experiment(experiment)
    wall = perf_counter() - started
    started = perf_counter()
    footer = box["streamer"].finish()
    finish_s = perf_counter() - started
    return result, footer, wall, finish_s


def sink_cost_per_row(rows: int = 20_000) -> float:
    """Measured seconds per data row on the JSONL sink."""
    sink = JsonlTelemetrySink(io.StringIO())
    row = {
        "kind": "sample",
        "name": "link.utilization",
        "labels": {"link": "Athens-Thessaloniki"},
        "time": 28_800.0,
        "value": 0.25,
    }
    started = perf_counter()
    for _ in range(rows):
        sink.write(row)
    elapsed = perf_counter() - started
    sink.close()
    return elapsed / rows


def test_peak_resident_rows_flat_at_10x_sessions(benchmark, show, tmp_path):
    def measure():
        return (
            run_streamed_crowd(4, tmp_path / "small.jsonl"),
            run_streamed_crowd(40, tmp_path / "large.jsonl"),
        )

    (small, large) = benchmark.pedantic(measure, rounds=1, iterations=1)
    small_result, small_footer, _, _ = small
    large_result, large_footer, _, _ = large
    sessions_small = small_result.metrics.session_count
    sessions_large = large_result.metrics.session_count
    assert sessions_large == 10 * sessions_small
    # Every finished span left RAM through the sink, none piled up.
    assert large_result.service.spans == []
    assert large_footer["rows_by_kind"]["span"] == sessions_large
    growth = (
        large_footer["peak_resident_rows"] / small_footer["peak_resident_rows"]
    )
    show(
        f"STREAM-MEM: {sessions_small} -> {sessions_large} sessions, peak "
        f"resident rows {small_footer['peak_resident_rows']} -> "
        f"{large_footer['peak_resident_rows']} ({growth:.2f}x, bound "
        f"{MAX_PEAK_GROWTH:.2f}x); "
        f"{large_footer['rows_written']} rows on disk for the 10x run"
    )
    assert growth < MAX_PEAK_GROWTH


def test_streaming_overhead_below_three_percent(benchmark, show, tmp_path):
    (result, footer, wall, finish_s) = benchmark.pedantic(
        lambda: run_streamed_crowd(40, tmp_path / "crowd.jsonl"),
        rounds=1,
        iterations=1,
    )
    plain_result, _, plain_wall, _ = run_streamed_crowd(
        40, tmp_path / "plain.jsonl", observability=False
    )
    assert result.metrics.completed_count == result.metrics.session_count
    assert plain_result.metrics.completed_count == result.metrics.completed_count
    live_rows = footer["spans_flushed"] + footer["samples_spilled"]
    per_row = sink_cost_per_row()
    overhead = live_rows * per_row
    fraction = overhead / wall
    show(
        f"STREAM-COST (gated, live write-behind share): {live_rows} live rows x "
        f"{per_row * 1e6:.2f} us/row = {overhead * 1e3:.3f} ms over a "
        f"{wall * 1e3:.0f} ms run -> {fraction:.3%} (bound "
        f"{MAX_OVERHEAD_FRACTION:.0%})\n"
        f"STREAM-COST (printed, whole artifact): {footer['rows_written']} rows x "
        f"{per_row * 1e6:.2f} us/row = "
        f"{footer['rows_written'] * per_row * 1e3:.1f} ms at the write() cost "
        f"(samples drain cheaper, through write_samples); finish() measured "
        f"{finish_s * 1e3:.1f} ms, after the timed wall\n"
        f"STREAM-COST (printed, same crowd): observability on "
        f"{(wall + finish_s) * 1e3:.0f} ms (run {wall * 1e3:.0f} + finish "
        f"{finish_s * 1e3:.0f}) vs off {plain_wall * 1e3:.0f} ms -> "
        f"{(wall + finish_s) / plain_wall:.2f}x"
    )
    assert footer["spans_flushed"] == result.metrics.session_count
    assert footer["rows_written"] > 1_000
    assert fraction < MAX_OVERHEAD_FRACTION
