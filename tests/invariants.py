"""Whole-service conservation invariants, checked between events.

:func:`check_invariants` reads a live :class:`~repro.core.service.VoDService`
from the outside and returns every broken invariant as a line of text (an
empty list: all hold).  It is meant to run after each ``sim.step()``:

* per link, the reserved bandwidth equals the sum of the active flows
  crossing it, and never exceeds the capacity;
* per server, the admitted streams never exceed ``max_streams``;
* per disk, the resident megabytes never exceed the capacity;
* the database's advertisements are what the arrays hold — the per-cluster
  holder sets trust them: a partial holder's advertised fraction equals
  its array's resident fraction, and every full holder has the whole
  title resident;
* the failover supervisor's index holds exactly the live transfers, each
  under its server and under every link of its path;
* a session with nothing scheduled is a parked failover stall: it sits in
  the supervisor's waiter index exactly once, holds no pending event and
  is not finished, and every waiter is such a session (without a
  supervisor, every unfinished session has an event scheduled);
* the ``service.sessions_active`` count equals a scan of the sessions;
* no terminal request is still scheduled.

A live transfer is found by its pending handle: between events every
transfer segment in flight has exactly one pending event whose callback
is a method of the transfer (its stepping handle, or the poke that cuts
it), in the engine's heap or its lane, and the process of a request is
found through the frame of its ``_admit`` generator.  Nothing in ``src/`` keeps a registry
for this check: a sleeping session is an unfinished request that no
pending event belongs to.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.core.service import VoDService
from repro.core.session import _Transfer
from repro.sim.process import Process

EPS = 1e-9
#: Reserved bandwidth is a running float sum of reserve/release steps.
SUM_TOLERANCE = 1e-6

_ADMIT = VoDService._admit.__code__


def _pending_handles(sim):
    return [
        handle for queue in (sim._heap, sim._lane) for _, _, handle in queue if handle.pending
    ]


def _request_of(process: Process):
    """The request a session process serves (None: not a session process)."""
    frame = process._generator.gi_frame
    if frame is None or frame.f_code is not _ADMIT:
        return None
    return frame.f_locals["session"].record.request


def check_invariants(service: VoDService) -> List[str]:
    """Every broken invariant of ``service``, as text (empty: all hold)."""
    problems: List[str] = []

    # Bandwidth: reserved = the active flows' rates, within capacity.
    flows = service.flows
    expected: Dict[str, float] = defaultdict(float)
    for flow in flows._active.values():
        for link in flows.links_of(flow.node_path):
            expected[link.name] += flow.rate_mbps
    for link in service.topology.links():
        reserved = link.reserved_mbps
        if abs(reserved - expected.get(link.name, 0.0)) > SUM_TOLERANCE:
            problems.append(
                f"link {link.name}: reserved {reserved!r} != active flows "
                f"{expected.get(link.name, 0.0)!r}"
            )
        if reserved > link.capacity_mbps + EPS:
            problems.append(
                f"link {link.name}: reserved {reserved!r} > capacity {link.capacity_mbps!r}"
            )

    # Stream slots and disk space.
    for uid, server in service.servers.items():
        admission = server.admission
        if admission.active_count > admission.max_streams:
            problems.append(
                f"server {uid}: {admission.active_count} streams > "
                f"max_streams {admission.max_streams}"
            )
        array = server.array
        for index in range(array.disk_count):
            disk = array.disk(index)
            if disk.used_mb > disk.capacity_mb + EPS:
                problems.append(
                    f"server {uid} disk {index}: {disk.used_mb!r} MB resident > "
                    f"capacity {disk.capacity_mb!r} MB"
                )

    # Advertised fractions: a partial entry is the array's own share, and a
    # full holder holds the whole title.  The one exception is a prefix
    # promoted to a full store whose download is still in flight: the array
    # already holds every cluster, and the advertisement keeps its old
    # fraction until the download commits.
    database = service.database
    for title_id, partials in database._holder_fractions.items():
        for uid, fraction in partials.items():
            server = service.servers[uid]
            if title_id in server._pending_advertisements and server.array.has_video(title_id):
                continue
            resident = server.array.resident_fraction(title_id)
            if fraction != resident:
                problems.append(
                    f"server {uid}: advertises {fraction!r} of {title_id}, holds {resident!r}"
                )
    for title_id, holders in database._full_holders.items():
        for uid in holders:
            if not service.servers[uid].array.has_video(title_id):
                problems.append(f"server {uid}: a full holder of {title_id} without the title")

    # Live transfers and the processes with a pending wake-up.
    pending = _pending_handles(service.sim)
    live = {}
    scheduled = []
    for handle in pending:
        owner = getattr(handle.callback, "__self__", None)
        if isinstance(owner, _Transfer):
            live[owner] = None
            scheduled.append((owner._process, handle))
        elif isinstance(owner, Process):
            scheduled.append((owner, handle))

    supervisor = service.supervisor
    if supervisor is not None:
        by_server = {
            (uid, transfer)
            for uid, bucket in supervisor._by_server.items()
            for transfer in bucket
        }
        want_server = {(transfer.server_uid, transfer) for transfer in live}
        if by_server != want_server:
            problems.append(
                f"supervisor server index: {len(by_server - want_server)} stale, "
                f"{len(want_server - by_server)} missing of {len(live)} live transfers"
            )
        by_link = {
            (name, transfer)
            for name, bucket in supervisor._by_link.items()
            for transfer in bucket
        }
        want_link = {(link.name, transfer) for transfer in live for link in transfer.links}
        if by_link != want_link:
            problems.append(
                f"supervisor link index: {len(by_link - want_link)} stale, "
                f"{len(want_link - by_link)} missing"
            )

    # A session with nothing scheduled is parked on the feed, in the
    # waiter index exactly once; every waiter is such a session.
    awake = {id(_request_of(process)) for process, _ in scheduled if process is not None}
    sleeping = {
        id(record.request): record.request.request_id
        for record in service.sessions
        if not record.request.finished and id(record.request) not in awake
    }
    waiters = list(supervisor._waiters) if supervisor is not None else []
    parked = {}
    for stall in waiters:
        process = stall.process
        request = _request_of(process) if process is not None else None
        if request is None or process.finished or request.finished:
            problems.append(f"waiter of {stall.title_id} is no unfinished session")
            continue
        if process._pending_handle is not None or id(request) in awake:
            problems.append(f"parked request {request.request_id} has an event pending")
        if id(request) in parked:
            problems.append(f"request {request.request_id} parked twice")
        parked[id(request)] = request.request_id
    if parked.keys() != sleeping.keys():
        problems.append(
            f"sleeping sessions {sorted(sleeping.values())} != parked "
            f"{sorted(parked.values())}"
        )
    if supervisor is not None:
        by_title = {
            (title, stall) for title, bucket in supervisor._by_title.items() for stall in bucket
        }
        by_watched = {
            (uid, key, stall)
            for uid, groups in supervisor._by_watched.items()
            for key, bucket in groups.items()
            for stall in bucket
        }
        if (
            by_title != {(stall.title_id, stall) for stall in waiters}
            or by_watched != {
                (uid, (stall.title_id, cluster), stall)
                for stall in waiters
                for uid, cluster in stall.watched
            }
            or set(supervisor._partitioned) != {s for s in waiters if s.partitioned}
        ):
            problems.append("supervisor waiter index out of step with its waiters")

    # The active-session count is counted, not scanned: compare.
    scan = sum(1 for record in service.sessions if not record.request.finished)
    counted = len(service.sessions) - service._sessions_finished
    if counted != scan:
        problems.append(f"sessions_active counts {counted}, a scan finds {scan}")

    # A terminal request has nothing scheduled.  The one exception is the
    # start kick of a request rejected at submit: its process returns on
    # that first step.
    for process, handle in scheduled:
        if process is None or process.finished:
            problems.append(f"event {handle.name} pending for a finished process")
            continue
        request = _request_of(process)
        if request is None or not request.finished:
            continue
        if not handle.name.startswith("start:"):
            problems.append(
                f"request {request.request_id} is {request.status.value} but "
                f"{handle.name} is scheduled"
            )
    return problems
