"""Workload generation for experiments and benchmarks.

Video-on-demand request populations are classically Zipf-distributed over
titles with Poisson arrivals; :mod:`repro.workload.zipf` and
:mod:`repro.workload.arrivals` provide those, :mod:`repro.workload.catalog`
generates synthetic title catalogs, :mod:`repro.workload.traces` shapes
diurnal background traffic (including replaying the paper's Table 2), and
:mod:`repro.workload.scenarios` packages ready-made workloads used by the
examples and benchmarks.
"""

from repro.workload.arrivals import PoissonArrivals
from repro.workload.catalog import CatalogGenerator
from repro.workload.traces import DiurnalTrafficShaper, Table2Replayer
from repro.workload.zipf import ZipfSampler, zipf_weights

from repro.workload.scenarios import (
    RequestEvent,
    WorkloadScenario,
    flash_crowd_scenario,
    regional_scenario,
)

__all__ = [
    "CatalogGenerator",
    "DiurnalTrafficShaper",
    "PoissonArrivals",
    "RequestEvent",
    "Table2Replayer",
    "WorkloadScenario",
    "ZipfSampler",
    "flash_crowd_scenario",
    "regional_scenario",
    "zipf_weights",
]
