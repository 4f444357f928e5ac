"""The paper's GRNET case study: Tables 2-5 and Experiments A-D.

Everything here recomputes the paper's evaluation from the embedded Table 2
traffic samples:

* :func:`compute_table2_utilization_percent` — eq. (5) utilisation (Table 2's
  percentage rows);
* :func:`compute_table3_lvn` — equations (1)-(4) over each sampling instant
  (Table 3);
* :func:`run_experiment` — Experiments A-D, each yielding the full VRA
  decision and a paper-style Dijkstra step trace (Tables 4-5);
* :func:`table2_deltas` / :func:`table3_deltas` — cell-by-cell comparison
  against the values printed in the paper.

Paper errata reproduced deliberately (DESIGN.md §5): Experiment A's printed
Table 4 misses the relaxation of U4 through U3, so the paper picks Xanthi
(U5) while a correct Dijkstra over the paper's own weights picks
Thessaloniki (U4).  ``PAPER_EXPERIMENTS`` records both the printed and the
corrected expectations, and the benchmark prints the delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.lvn import DEFAULT_NORMALIZATION_CONSTANT, weight_table
from repro.core.vra import VirtualRoutingAlgorithm, VraDecision
from repro.network import grnet
from repro.network.compiled import TopologySnapshot
from repro.network.routing.dijkstra import DijkstraStep
from repro.network.topology import Topology


@dataclass(frozen=True)
class ExperimentSpec:
    """One of the paper's four case-study experiments.

    Attributes:
        exp_id: "A".."D".
        time_label: Table 2 sampling instant the experiment runs at.
        home_uid: The client's home server.
        holder_uids: Servers that "can only ... provide" the title.
        description: The paper's scenario sentence.
    """

    exp_id: str
    time_label: str
    home_uid: str
    holder_uids: Tuple[str, ...]
    description: str


@dataclass(frozen=True)
class PaperExpectation:
    """What the paper reports for one experiment.

    Attributes:
        printed_chosen: Server the paper says wins.
        printed_costs: Candidate -> total cost as printed.
        printed_paths: Candidate -> node path as printed (home-first).
        corrected_chosen: Winner under a correct Dijkstra on the paper's
            own weights (differs from printed only for Experiment A).
        erratum: Human-readable note when printed != corrected.
    """

    printed_chosen: str
    printed_costs: Dict[str, float]
    printed_paths: Dict[str, Tuple[str, ...]]
    corrected_chosen: str
    erratum: str = ""


@dataclass
class ExperimentOutcome:
    """A recomputed experiment.

    Attributes:
        spec: The experiment definition.
        decision: Full VRA decision.
        candidate_costs: Candidate server -> recomputed least cost.
        candidate_paths: Candidate server -> recomputed least-cost path.
        chosen_uid: Recomputed winner.
        expectation: The paper's printed/corrected values for diffing.
        steps: The paper-style Dijkstra step table from the home server
            over ``decision.weights`` (Tables 4-5); empty when not traced.
    """

    spec: ExperimentSpec
    decision: VraDecision
    candidate_costs: Dict[str, float]
    candidate_paths: Dict[str, Tuple[str, ...]]
    chosen_uid: str
    expectation: PaperExpectation
    steps: List[DijkstraStep]

    @property
    def matches_corrected(self) -> bool:
        """True when the recomputed winner equals the corrected expectation."""
        return self.chosen_uid == self.expectation.corrected_chosen

    @property
    def matches_printed(self) -> bool:
        """True when the recomputed winner equals the printed expectation."""
        return self.chosen_uid == self.expectation.printed_chosen


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "A": ExperimentSpec(
        exp_id="A",
        time_label="8am",
        home_uid="U2",
        holder_uids=("U4", "U5"),
        description=(
            "8:00 am: a client at Patra (U2) requests a title held only by "
            "Thessaloniki (U4) and Xanthi (U5)"
        ),
    ),
    "B": ExperimentSpec(
        exp_id="B",
        time_label="10am",
        home_uid="U2",
        holder_uids=("U4", "U5"),
        description=(
            "10:00 am: the same request — client at Patra (U2), title held "
            "by Thessaloniki (U4) and Xanthi (U5)"
        ),
    ),
    "C": ExperimentSpec(
        exp_id="C",
        time_label="4pm",
        home_uid="U1",
        holder_uids=("U3", "U4", "U5"),
        description=(
            "4:00 pm: a client at Athens (U1) requests a title held only by "
            "Thessaloniki (U4), Xanthi (U5) and Ioannina (U3)"
        ),
    ),
    "D": ExperimentSpec(
        exp_id="D",
        time_label="6pm",
        home_uid="U1",
        holder_uids=("U3", "U4", "U5"),
        description=(
            "6:00 pm: the same request — client at Athens (U1), title held "
            "by Thessaloniki (U4), Xanthi (U5) and Ioannina (U3)"
        ),
    ),
}

PAPER_EXPERIMENTS: Dict[str, PaperExpectation] = {
    "A": PaperExpectation(
        printed_chosen="U5",
        printed_costs={"U4": 0.365, "U5": 0.315},
        printed_paths={
            "U4": ("U2", "U1", "U4"),
            "U5": ("U2", "U1", "U6", "U5"),
        },
        corrected_chosen="U4",
        erratum=(
            "Table 4 misses the relaxation of U4 through U3: with the "
            "paper's own 8am weights the best U2->U4 path is U2,U3,U4 at "
            "~0.218 (< 0.316 to U5), so a correct Dijkstra downloads from "
            "Thessaloniki, not Xanthi."
        ),
    ),
    "B": PaperExpectation(
        printed_chosen="U4",
        printed_costs={"U4": 1.007, "U5": 1.308},
        printed_paths={
            "U4": ("U2", "U3", "U4"),
            "U5": ("U2", "U1", "U6", "U5"),
        },
        corrected_chosen="U4",
    ),
    "C": PaperExpectation(
        printed_chosen="U3",
        printed_costs={"U4": 1.5433, "U5": 1.274, "U3": 1.222},
        printed_paths={
            "U4": ("U1", "U4"),
            "U5": ("U1", "U6", "U5"),
            "U3": ("U1", "U2", "U3"),
        },
        corrected_chosen="U3",
    ),
    "D": PaperExpectation(
        printed_chosen="U3",
        printed_costs={"U4": 1.4824, "U5": 1.3574, "U3": 1.236},
        printed_paths={
            "U4": ("U1", "U4"),
            "U5": ("U1", "U6", "U5"),
            "U3": ("U1", "U2", "U3"),
        },
        corrected_chosen="U3",
    ),
}


def topology_at(time_label: str) -> Topology:
    """A fresh GRNET topology carrying one Table 2 sample as background."""
    topology = grnet.build_grnet_topology()
    grnet.apply_traffic_sample(topology, time_label)
    return topology


def compute_table2_utilization_percent() -> Dict[str, Dict[str, float]]:
    """Recompute Table 2's utilisation rows via eq. (5), in percent."""
    table: Dict[str, Dict[str, float]] = {}
    for link_name, samples in grnet.TABLE2_TRAFFIC_MBPS.items():
        capacity = next(c for n, _, c in grnet.GRNET_LINKS if n == link_name)
        table[link_name] = {
            time_label: 100.0 * used / capacity for time_label, used in samples.items()
        }
    return table


def compute_table3_lvn(
    normalization_constant: float = DEFAULT_NORMALIZATION_CONSTANT,
) -> Dict[str, Dict[str, float]]:
    """Recompute Table 3: the LVN of every link at every sampling instant."""
    table: Dict[str, Dict[str, float]] = {name: {} for name, _, _ in grnet.GRNET_LINKS}
    for time_label in grnet.SAMPLE_TIMES:
        weights = weight_table(
            topology_at(time_label), normalization_constant=normalization_constant
        )
        for link_name, lvn in weights.items():
            table[link_name][time_label] = lvn
    return table


@dataclass(frozen=True)
class CellDelta:
    """One cell's computed-vs-printed comparison."""

    link_name: str
    time_label: str
    computed: float
    printed: float

    @property
    def delta(self) -> float:
        """computed - printed."""
        return self.computed - self.printed


def table2_deltas() -> List[CellDelta]:
    """Computed-vs-printed comparison for every Table 2 utilisation cell."""
    computed = compute_table2_utilization_percent()
    deltas: List[CellDelta] = []
    for link_name, row in grnet.PAPER_TABLE2_UTILIZATION_PERCENT.items():
        for time_label, printed in row.items():
            deltas.append(
                CellDelta(link_name, time_label, computed[link_name][time_label], printed)
            )
    return deltas


def table3_deltas() -> List[CellDelta]:
    """Computed-vs-printed comparison for every Table 3 LVN cell.

    The printed table carries inconsistent rounding (DESIGN.md §5 erratum
    2); all deltas stay below ~0.012, which the benchmark asserts.
    """
    computed = compute_table3_lvn()
    deltas: List[CellDelta] = []
    for link_name, row in grnet.PAPER_TABLE3_LVN.items():
        for time_label, printed in row.items():
            deltas.append(
                CellDelta(link_name, time_label, computed[link_name][time_label], printed)
            )
    return deltas


def run_experiment(exp_id: str, trace: bool = True) -> ExperimentOutcome:
    """Recompute one of Experiments A-D.

    Args:
        exp_id: "A", "B", "C" or "D".
        trace: Record the paper-style Dijkstra step table.

    Raises:
        KeyError: For an unknown experiment id.
    """
    spec = EXPERIMENTS[exp_id]
    topology = topology_at(spec.time_label)
    vra = VirtualRoutingAlgorithm(topology)
    decision = vra.decide(spec.home_uid, title_id=f"case-study-{exp_id}", holders=list(spec.holder_uids))
    steps = TopologySnapshot(topology).dijkstra(spec.home_uid, decision.weights, trace=trace).steps
    candidate_costs = {uid: path.cost for uid, path in decision.candidate_paths.items()}
    candidate_paths = {uid: path.nodes for uid, path in decision.candidate_paths.items()}
    return ExperimentOutcome(
        spec=spec,
        decision=decision,
        candidate_costs=candidate_costs,
        candidate_paths=candidate_paths,
        chosen_uid=decision.chosen_uid,
        expectation=PAPER_EXPERIMENTS[exp_id],
        steps=steps,
    )


def run_all_experiments(trace: bool = True) -> Dict[str, ExperimentOutcome]:
    """All four experiments, keyed by id."""
    return {exp_id: run_experiment(exp_id, trace=trace) for exp_id in EXPERIMENTS}
