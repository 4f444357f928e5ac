"""Pins the request lifecycle end to end.

``TestEveryEnding``'s scenario ends requests every way the service can:
completed, failed mid-stream, shed at the admission queue, blocked by
strict QoS at submit, blocked at admit time after a queue wait, and (with
a budget) re-queued until the budget runs out.  The constants below were
recorded from the service before its admission path became one process
generator and its session callbacks one observer; the refactor must leave
every one of them unchanged:

* the session fingerprint (every record, reason and cluster);
* the ordered trace categories, spans included;
* the name of each request's one process (request ids read ``#``);
* ``sim.events_fired``.
"""

from typing import NamedTuple, Tuple

import pytest

import tests.obs.test_service_obs as service_obs
from repro.experiments.placement import session_fingerprint
from repro.network.grnet import apply_traffic_sample, build_grnet_topology
from repro.sim.trace import Tracer


class Pin(NamedTuple):
    fingerprint: str
    events_fired: int
    processes: Tuple[str, ...]
    categories: list


PINS = {
    0: Pin(
        fingerprint="e494f7993699dc5c9ce162d8cea0f885e08b84a4749b5ee3167864feace1f23e",
        events_fired=239,
        processes=("session:a:m", "queued:#", "shed:#", "blocked:#", "session:e:m", "queued:#"),
        categories="""
            request.submitted placement.pass span.submitted
            vra.decision request.submitted placement.pass
            span.submitted request.queued span.queued
            request.submitted placement.pass span.submitted
            span.finished request.shed vra.decision
            span.vra.decision vra.decision vra.decision
            span.vra.decision request.submitted placement.pass
            span.submitted vra.decision span.finished
            request.blocked request.submitted placement.pass
            span.submitted vra.decision request.submitted
            placement.pass span.submitted request.queued span.queued
            vra.decision span.vra.decision vra.decision
            span.finished request.blocked span.cluster.delivered
            vra.decision span.vra.decision span.cluster.delivered
            span.finished session.finished span.cluster.delivered
            vra.decision span.vra.decision span.cluster.delivered
            span.finished session.finished span.cluster.delivered
            span.finished session.finished
        """.split(),
    ),
    2: Pin(
        fingerprint="e494f7993699dc5c9ce162d8cea0f885e08b84a4749b5ee3167864feace1f23e",
        events_fired=243,
        processes=("session:a:m", "queued:#", "shed:#", "requeued:#", "session:e:m", "queued:#"),
        categories="""
            request.submitted placement.pass span.submitted
            vra.decision request.submitted placement.pass
            span.submitted request.queued span.queued
            request.submitted placement.pass span.submitted
            span.finished request.shed vra.decision
            span.vra.decision vra.decision vra.decision
            span.vra.decision request.submitted placement.pass
            span.submitted vra.decision request.requeued
            span.requeued vra.decision request.requeued
            span.requeued vra.decision span.finished request.blocked
            request.submitted placement.pass span.submitted
            vra.decision request.submitted placement.pass
            span.submitted request.queued span.queued vra.decision
            span.vra.decision vra.decision request.requeued
            span.requeued vra.decision request.requeued
            span.requeued span.cluster.delivered vra.decision
            span.vra.decision vra.decision span.finished
            request.blocked span.cluster.delivered span.finished
            session.finished span.cluster.delivered vra.decision
            span.vra.decision span.cluster.delivered span.finished
            session.finished span.cluster.delivered span.finished
            session.finished
        """.split(),
    ),
}


def run_every_ending(requeue_attempts: int) -> Pin:
    topology = build_grnet_topology()
    apply_traffic_sample(topology, "8am")
    tracer = Tracer()
    scenario = service_obs.TestEveryEnding
    service = scenario.build(topology, requeue_attempts, tracer=tracer)
    processes = []
    submit = service.request_by_home

    def recording_submit(*args):
        request, session, process = submit(*args)
        processes.append(process.name.replace(str(request.request_id), "#"))
        return request, session, process

    service.request_by_home = recording_submit
    requests = scenario.drive(service)
    scenario.assert_endings(service, requests, requeue_attempts)
    return Pin(
        fingerprint=session_fingerprint(service.sessions),
        events_fired=service.sim.events_fired,
        processes=tuple(processes),
        categories=[event.category for event in tracer.events()],
    )


@pytest.mark.parametrize("requeue_attempts", sorted(PINS))
def test_every_ending_replays_the_pinned_lifecycle(requeue_attempts):
    pinned = PINS[requeue_attempts]
    run = run_every_ending(requeue_attempts)
    assert run.fingerprint == pinned.fingerprint
    assert run.processes == pinned.processes
    assert run.categories == pinned.categories
    assert run.events_fired == pinned.events_fired
