"""Measurement utilities: session-level collectors, summary statistics and
time series used by the benchmark harness."""

from repro.metrics.analysis import RunAnalysis, analyze_sessions, render_analysis
from repro.metrics.collectors import SessionMetrics, summarize_sessions
from repro.metrics.stats import mean, percentile
from repro.metrics.timeseries import TimeSeries

__all__ = [
    "RunAnalysis",
    "SessionMetrics",
    "TimeSeries",
    "analyze_sessions",
    "mean",
    "percentile",
    "render_analysis",
    "summarize_sessions",
]
