"""Unit tests for the ASCII report rendering."""

from repro.experiments.casestudy import run_experiment
from repro.experiments.report import (
    render_dijkstra_trace,
    render_experiment,
    render_table,
    render_table2,
    render_table3,
    render_timeline,
)
from repro.metrics.timeseries import TimeSeries


class TestRenderTable:
    def test_headers_and_rows_aligned(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert len({len(line) for line in lines}) == 1  # equal widths

    def test_title_prepended(self):
        text = render_table(["x"], [["1"]], title="My Table")
        assert text.splitlines()[0] == "My Table"


class TestPaperTables:
    def test_table2_mentions_every_link(self):
        text = render_table2()
        for name in (
            "Patra-Athens",
            "Patra-Ioannina",
            "Thessaloniki-Athens",
            "Thessaloniki-Xanthi",
            "Thessaloniki-Ioannina",
            "Athens-Heraklio",
            "Xanthi-Heraklio",
        ):
            assert name in text

    def test_table3_shows_ours_and_paper_values(self):
        text = render_table3()
        assert "0.0832 / 0.0830" in text  # Patra-Athens @8am
        assert "Link Validation Numbers" in text

    def test_dijkstra_trace_layout(self):
        outcome = run_experiment("B")
        text = render_dijkstra_trace(
            outcome.steps,
            destinations=["U3", "U1", "U4", "U5", "U6"],
            title="Table 5",
        )
        assert "Table 5" in text
        assert "{U2}" in text  # step-1 settled set
        assert "R" in text  # unreached marker
        assert "U2,U1,U6,U5" in text

    def test_experiment_report_includes_decision_and_erratum(self):
        text = render_experiment(run_experiment("A"))
        assert "download from U4" in text
        assert "paper printed U5" in text
        assert "Erratum" in text

    def test_experiment_report_without_erratum(self):
        text = render_experiment(run_experiment("C"))
        assert "download from U3" in text
        assert "Erratum" not in text


class TestRenderTimeline:
    @staticmethod
    def series(values, start=0.0, step=10.0):
        ts = TimeSeries("s")
        for i, v in enumerate(values):
            ts.record(start + i * step, v)
        return ts

    def test_rows_labeled_and_annotated(self):
        text = render_timeline(
            [
                ("Patra-Athens", self.series([0.0, 0.5, 1.0])),
                ("Xanthi", self.series([0.25, 0.25])),
            ],
            title="util",
            width=12,
        )
        lines = text.splitlines()
        assert lines[0] == "util"
        assert lines[1].startswith("Patra-Athens |")
        assert "peak 1" in lines[1]
        assert "peak 0.25" in lines[2]
        assert "t = 0 .. 20 s" in lines[3]

    def test_peak_preserving_resample(self):
        # One short spike in a long flat series must survive downsampling.
        values = [0.0] * 50 + [1.0] + [0.0] * 49
        text = render_timeline([("spiky", self.series(values))], width=10)
        assert "█" in text.splitlines()[0]

    def test_empty_and_all_empty(self):
        assert "(no samples)" in render_timeline([("a", TimeSeries())])
        mixed = render_timeline(
            [("empty", TimeSeries()), ("full", self.series([1.0]))]
        )
        assert "empty" not in mixed
        assert "full" in mixed


class TestFullTreeConsumer:
    def test_experiment_report_lists_every_candidate_and_every_step(self):
        """The report needs the losing candidates' paths and all six
        Dijkstra rows; a goal-directed prefix would end at the winner."""
        outcome = run_experiment("A")
        text = render_experiment(outcome)
        assert "U2,U3,U4" in text  # the winner
        assert "U2,U1,U6,U5" in text  # the loser's best path, farther out
        assert outcome.decision.dijkstra_result.complete
        # The last row settles all six nodes, U5 (beyond the winner) last.
        assert "{U2,U3,U1,U6,U4,U5}" in text
