"""Post-run analysis over session records.

Turns a finished service run into the per-server, per-route and per-title
breakdowns an operator would ask for — which links carried the bytes,
which servers sourced the streams, which titles dominated demand — all
derived purely from :class:`~repro.core.session.SessionRecord` data so it
works on any run regardless of tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.session import SessionRecord
from repro.network.link import link_key


@dataclass(frozen=True)
class ServerLoadRow:
    """One server's sourcing totals.

    Attributes:
        server_uid: The source server.
        sessions: Sessions that fetched at least one cluster from it.
        clusters: Clusters it sourced.
        megabytes: Bytes it sourced, in MB.
    """

    server_uid: str
    sessions: int
    clusters: int
    megabytes: float


@dataclass(frozen=True)
class LinkLoadRow:
    """One link's VoD transport totals.

    Attributes:
        endpoints: Canonical (a, b) node-uid pair.
        clusters: Cluster transfers that crossed the link.
        megabytes: Bytes carried for the VoD service, in MB.
    """

    endpoints: Tuple[str, str]
    clusters: int
    megabytes: float


@dataclass
class RunAnalysis:
    """Aggregated view of a batch of sessions.

    Attributes:
        server_load: Per-source-server totals, heaviest first.
        link_load: Per-link transport totals, heaviest first.
        title_demand: title_id -> request count, most requested first.
        switch_histogram: switches-per-session -> session count.
    """

    server_load: List[ServerLoadRow] = field(default_factory=list)
    link_load: List[LinkLoadRow] = field(default_factory=list)
    title_demand: List[Tuple[str, int]] = field(default_factory=list)
    switch_histogram: Dict[int, int] = field(default_factory=dict)


def analyze_sessions(records: Sequence[SessionRecord]) -> RunAnalysis:
    """Build a :class:`RunAnalysis` from session records."""
    server_sessions: Dict[str, set] = {}
    server_clusters: Dict[str, int] = {}
    server_megabytes: Dict[str, float] = {}
    link_clusters: Dict[Tuple[str, str], int] = {}
    link_megabytes: Dict[Tuple[str, str], float] = {}
    title_counts: Dict[str, int] = {}
    switch_histogram: Dict[int, int] = {}

    for record in records:
        title_counts[record.request.title_id] = (
            title_counts.get(record.request.title_id, 0) + 1
        )
        if record.request.finished:
            switches = record.switch_count
            switch_histogram[switches] = switch_histogram.get(switches, 0) + 1
        for cluster in record.clusters:
            uid = cluster.server_uid
            server_sessions.setdefault(uid, set()).add(record.request.request_id)
            server_clusters[uid] = server_clusters.get(uid, 0) + 1
            server_megabytes[uid] = server_megabytes.get(uid, 0.0) + cluster.size_mb
            for a, b in zip(cluster.path_nodes, cluster.path_nodes[1:]):
                key = link_key(a, b)
                link_clusters[key] = link_clusters.get(key, 0) + 1
                link_megabytes[key] = link_megabytes.get(key, 0.0) + cluster.size_mb

    server_load = sorted(
        (
            ServerLoadRow(
                server_uid=uid,
                sessions=len(server_sessions[uid]),
                clusters=server_clusters[uid],
                megabytes=server_megabytes[uid],
            )
            for uid in server_clusters
        ),
        key=lambda row: (-row.megabytes, row.server_uid),
    )
    link_load = sorted(
        (
            LinkLoadRow(
                endpoints=key,
                clusters=link_clusters[key],
                megabytes=link_megabytes[key],
            )
            for key in link_clusters
        ),
        key=lambda row: (-row.megabytes, row.endpoints),
    )
    title_demand = sorted(
        title_counts.items(), key=lambda item: (-item[1], item[0])
    )
    return RunAnalysis(
        server_load=server_load,
        link_load=link_load,
        title_demand=title_demand,
        switch_histogram=switch_histogram,
    )


def render_analysis(analysis: RunAnalysis, top: int = 10) -> str:
    """Readable multi-section report of a :class:`RunAnalysis`."""
    lines: List[str] = ["Run analysis", "=" * 40]
    lines.append("Sources (by bytes served):")
    for row in analysis.server_load[:top]:
        lines.append(
            f"  {row.server_uid:<6} {row.megabytes:10.0f} MB in "
            f"{row.clusters:5d} clusters across {row.sessions:4d} sessions"
        )
    lines.append("Links (by VoD bytes carried):")
    for row in analysis.link_load[:top]:
        lines.append(
            f"  {row.endpoints[0]}-{row.endpoints[1]:<5} "
            f"{row.megabytes:10.0f} MB in {row.clusters:5d} clusters"
        )
    lines.append("Titles (by requests):")
    for title_id, count in analysis.title_demand[:top]:
        lines.append(f"  {title_id:<12} {count:5d} requests")
    lines.append("Mid-stream switches per session:")
    for switches in sorted(analysis.switch_histogram):
        lines.append(
            f"  {switches:2d} switch(es): {analysis.switch_histogram[switches]:4d} sessions"
        )
    return "\n".join(lines)
