"""Packaged workload scenarios.

A :class:`WorkloadScenario` is a reproducible list of timed requests
(client home server + title) plus the catalog behind them.  The paper's
motivation is regional demand skew — "we meet the requests of the users
that are utilizing a certain server and may have different orientations
than other users" — so :func:`regional_scenario` gives each node its own
rotated Zipf ranking over a shared catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import WorkloadError
from repro.sim.rng import RngRegistry
from repro.storage.video import VideoTitle
from repro.workload.arrivals import PoissonArrivals
from repro.workload.catalog import CatalogGenerator
from repro.workload.zipf import ZipfSampler


@dataclass(frozen=True)
class RequestEvent:
    """One scheduled request.

    Attributes:
        time_s: Simulated submission instant.
        home_uid: The client's home server.
        title_id: The requested title.
        client_id: Synthetic client identity.
    """

    time_s: float
    home_uid: str
    title_id: str
    client_id: str


@dataclass
class WorkloadScenario:
    """A full, reproducible request schedule.

    Attributes:
        catalog: Every title referenced by the events.
        events: Requests sorted by time.
    """

    catalog: List[VideoTitle]
    events: List[RequestEvent]

    @property
    def duration_s(self) -> float:
        """Time of the last event (0 for an empty schedule)."""
        return self.events[-1].time_s if self.events else 0.0


def regional_scenario(
    home_uids: Sequence[str],
    catalog_size: int = 50,
    requests_per_node: int = 100,
    horizon_s: float = 8 * 3600.0,
    zipf_exponent: float = 0.9,
    regional_shift: int = 5,
    seed: int = 42,
    catalog: Optional[List[VideoTitle]] = None,
) -> WorkloadScenario:
    """Zipf+Poisson workload with per-region popularity rotation.

    Each node draws from the shared catalog, but node ``i``'s popularity
    ranking is the global one rotated by ``i * regional_shift`` positions —
    so every region has its own "most popular" titles, the situation the
    DMA's per-server caches are designed for.

    Args:
        home_uids: The nodes clients attach to.
        catalog_size: Number of titles (ignored when ``catalog`` given).
        requests_per_node: Mean request count per node over the horizon.
        horizon_s: Schedule length in simulated seconds.
        zipf_exponent: Popularity skew.
        regional_shift: Ranking rotation per node index (0 = identical
            tastes everywhere).
        seed: Master seed; every stream derives from it.
        catalog: Optional pre-built catalog to reuse.

    Raises:
        WorkloadError: For an empty node list or non-positive parameters.
    """
    if not home_uids:
        raise WorkloadError("regional_scenario needs at least one home node")
    if requests_per_node < 1:
        raise WorkloadError(
            f"requests_per_node must be >= 1, got {requests_per_node}"
        )
    if not (horizon_s > 0.0):
        raise WorkloadError(f"horizon must be positive, got {horizon_s!r}")

    rngs = RngRegistry(master_seed=seed)
    if catalog is None:
        catalog = CatalogGenerator(rng=rngs.stream("catalog")).generate(catalog_size)
    title_ids = [title.title_id for title in catalog]

    events: List[RequestEvent] = []
    for index, home_uid in enumerate(home_uids):
        rotation = (index * regional_shift) % len(title_ids)
        regional_ranking = title_ids[rotation:] + title_ids[:rotation]
        sampler = ZipfSampler(
            regional_ranking,
            exponent=zipf_exponent,
            rng=rngs.stream(f"titles.{home_uid}"),
        )
        arrivals = PoissonArrivals(
            rate_per_s=requests_per_node / horizon_s,
            rng=rngs.stream(f"arrivals.{home_uid}"),
        )
        for serial, time_s in enumerate(arrivals.times_until(horizon_s)):
            events.append(
                RequestEvent(
                    time_s=time_s,
                    home_uid=home_uid,
                    title_id=sampler.sample(),
                    client_id=f"client-{home_uid}-{serial:04d}",
                )
            )
    events.sort(key=lambda e: (e.time_s, e.client_id))
    return WorkloadScenario(catalog=catalog, events=events)


def flash_crowd_scenario(
    home_uid: str,
    title: VideoTitle,
    viewer_count: int = 40,
    start_s: float = 600.0,
    ramp_s: float = 1_800.0,
    seed: int = 7,
) -> WorkloadScenario:
    """A flash crowd: many viewers at one node want one title, fast.

    The stress case the DMA's "most popular" concept is built to absorb:
    the first fetch pays the network cost, everyone after it is served
    from the freshly cached local copy.

    Args:
        home_uid: The node the crowd is attached to.
        title: The title everyone wants.
        viewer_count: Crowd size.
        start_s: When the first request lands.
        ramp_s: The crowd arrives uniformly at random over this window.
        seed: RNG seed for the arrival jitter.

    Raises:
        WorkloadError: For non-positive crowd size or window.
    """
    if viewer_count < 1:
        raise WorkloadError(f"viewer_count must be >= 1, got {viewer_count}")
    if not (ramp_s > 0.0):
        raise WorkloadError(f"ramp window must be positive, got {ramp_s!r}")
    rng = RngRegistry(seed).stream("flashcrowd")
    times = sorted(start_s + rng.uniform(0.0, ramp_s) for _ in range(viewer_count))
    events = [
        RequestEvent(
            time_s=time_s,
            home_uid=home_uid,
            title_id=title.title_id,
            client_id=f"crowd-{serial:04d}",
        )
        for serial, time_s in enumerate(times)
    ]
    return WorkloadScenario(catalog=[title], events=events)
