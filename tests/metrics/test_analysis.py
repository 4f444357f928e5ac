"""Unit tests for the post-run analysis module."""

import pytest

from repro.client.requests import VideoRequest
from repro.core.session import ClusterRecord, SessionRecord
from repro.metrics.analysis import analyze_sessions, render_analysis


def make_record(title_id, clusters, switches=0, completed=True):
    request = VideoRequest(
        client_id="c", home_uid="A", title_id=title_id, submitted_at=0.0
    )
    if completed:
        request.mark_completed()
    record = SessionRecord(request=request)
    record.clusters = clusters
    record.switch_count = switches
    if completed:
        record.completed_at = 100.0
    return record


def cluster(index, path, server=None, size=25.0):
    return ClusterRecord(
        index=index,
        server_uid=server or path[-1],
        path_nodes=tuple(path),
        rate_mbps=1.0,
        start=float(index),
        end=float(index) + 1.0,
        size_mb=size,
        switched=False,
        qos_violated=False,
    )


@pytest.fixture
def records():
    return [
        make_record(
            "t1",
            [cluster(0, ["A", "B"], size=50.0), cluster(1, ["A", "B"], size=50.0)],
        ),
        make_record(
            "t1",
            [cluster(0, ["A", "B", "C"], size=30.0), cluster(1, ["A", "B"], size=30.0)],
            switches=1,
        ),
        make_record("t2", [cluster(0, ["A"], size=10.0)]),
    ]


class TestAnalyzeSessions:
    def test_server_load_totals(self, records):
        analysis = analyze_sessions(records)
        by_uid = {row.server_uid: row for row in analysis.server_load}
        assert by_uid["B"].megabytes == pytest.approx(130.0)
        assert by_uid["B"].clusters == 3
        assert by_uid["B"].sessions == 2
        assert by_uid["C"].megabytes == pytest.approx(30.0)
        assert by_uid["A"].megabytes == pytest.approx(10.0)

    def test_server_load_sorted_heaviest_first(self, records):
        analysis = analyze_sessions(records)
        megabytes = [row.megabytes for row in analysis.server_load]
        assert megabytes == sorted(megabytes, reverse=True)
        assert analysis.server_load[0].server_uid == "B"

    def test_link_load_counts_every_hop(self, records):
        analysis = analyze_sessions(records)
        by_link = {row.endpoints: row for row in analysis.link_load}
        # A-B carried: 50+50 (session 1) + 30+30 (session 2) = 160.
        assert by_link[("A", "B")].megabytes == pytest.approx(160.0)
        # B-C carried the 30 MB of the 2-hop cluster only.
        assert by_link[("B", "C")].megabytes == pytest.approx(30.0)
        assert analysis.link_load[0].endpoints == ("A", "B")

    def test_local_clusters_touch_no_links(self):
        analysis = analyze_sessions([make_record("t", [cluster(0, ["A"])])])
        assert analysis.link_load == []

    def test_title_demand_counts_requests(self, records):
        analysis = analyze_sessions(records)
        assert analysis.title_demand == [("t1", 2), ("t2", 1)]

    def test_switch_histogram(self, records):
        analysis = analyze_sessions(records)
        assert analysis.switch_histogram == {0: 2, 1: 1}

    def test_empty_input(self):
        analysis = analyze_sessions([])
        assert analysis.server_load == []
        assert analysis.title_demand == []


class TestRenderAnalysis:
    def test_report_sections(self, records):
        text = render_analysis(analyze_sessions(records))
        assert "Sources (by bytes served):" in text
        assert "Links (by VoD bytes carried):" in text
        assert "Titles (by requests):" in text
        assert "A-B" in text
        assert "t1" in text

    def test_top_limits_rows(self, records):
        text = render_analysis(analyze_sessions(records), top=1)
        assert "C" not in [line.split()[0] for line in text.splitlines() if line.startswith("  ")]
