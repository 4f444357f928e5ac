"""Pins the request lifecycle end to end.

``TestEveryEnding``'s scenario ends requests every way the service can:
completed, failed mid-stream, shed at the admission queue, blocked by
strict QoS at submit, and blocked at admit time after a queue wait.  The
constants below were recorded from the service before its admission path
became one process generator and its session callbacks one observer, and
before a session's retry and failover waits became one loop; a refactor
must leave every one of them unchanged:

* the session fingerprint (every record, reason and cluster);
* each span row's event kinds and its number of decisions (entries of
  its cluster columns), in submission order (the span is a request's
  one trail);
* the name of each request's one process (request ids read ``#``);
* ``sim.events_fired``.
"""

from typing import NamedTuple, Tuple

import tests.obs.test_service_obs as service_obs
from repro.experiments.placement import session_fingerprint
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.obs.export import telemetry_rows

#: The event kinds of the served spans.  Their decisions, switches and
#: deliveries are the row's cluster columns, not events, since the span
#: row is written from the session record.
SERVED = ("submitted", "finished")
QUEUED_THEN_SERVED = ("submitted", "queued", "finished")


class Pin(NamedTuple):
    fingerprint: str
    events_fired: int
    processes: Tuple[str, ...]
    span_kinds: Tuple[Tuple[str, str, Tuple[str, ...], int], ...]


PIN = Pin(
    fingerprint="e494f7993699dc5c9ce162d8cea0f885e08b84a4749b5ee3167864feace1f23e",
    events_fired=239,
    processes=("session:a:m", "queued:#", "shed:#", "blocked:#", "session:e:m", "queued:#"),
    span_kinds=(
        ("a", "completed", SERVED, 2),
        ("b", "failed", QUEUED_THEN_SERVED, 1),
        ("c", "failed", ("submitted", "finished"), 0),
        ("d", "failed", ("submitted", "finished"), 0),
        ("e", "completed", SERVED, 2),
        ("f", "failed", ("submitted", "queued", "finished"), 0),
    ),
)


def run_every_ending() -> Pin:
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    scenario = service_obs.TestEveryEnding
    service = scenario.build(topology, 0)
    processes = []
    submit = service.request_by_home

    def recording_submit(*args):
        request, session, process = submit(*args)
        processes.append(process.name.replace(str(request.request_id), "#"))
        return request, session, process

    service.request_by_home = recording_submit
    requests = scenario.drive(service)
    scenario.assert_endings(service, requests, 0)
    # Closed spans were written as they closed; the open ones (none, once
    # every request ended) come with the end-of-run rows.
    spans = [
        row
        for row in [*service.telemetry.sink.rows,
                    *telemetry_rows(service.obs, service.open_spans.values())]
        if row["kind"] == "span"
    ]
    return Pin(
        fingerprint=session_fingerprint(service.sessions),
        events_fired=service.sim.events_fired,
        processes=tuple(processes),
        span_kinds=tuple(
            (row["client_id"], row["status"], tuple(e["kind"] for e in row["events"]),
             len(row["clusters"]["cost"]))
            for row in sorted(spans, key=lambda row: row["request_id"])
        ),
    )


def test_every_ending_replays_the_pinned_lifecycle():
    pinned = PIN
    run = run_every_ending()
    assert run.fingerprint == pinned.fingerprint
    assert run.processes == pinned.processes
    assert run.span_kinds == pinned.span_kinds
    assert run.events_fired == pinned.events_fired
