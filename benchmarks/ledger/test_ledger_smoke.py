"""Smoke test of the perf ledger: ``run.py --smoke`` end to end.

Not collected by tier-1 (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/ledger -q`` (about half a minute).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, str(HERE))
from run import END_TO_END, WORKLOADS, unit_of  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "ledger.json"
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text())


def test_benchmark_json_names_are_well_formed_and_used_once():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in DECLARED[section]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"]), metric
    for metric in DECLARED["end_to_end"]:
        _, better, bound = END_TO_END[metric["name"]]
        assert metric["better"] == better, metric
        assert metric["bound"] == pytest.approx(float(bound.rstrip(" %")) / 100), metric


def test_every_declared_metric_is_reported_by_every_workload(ledger):
    assert set(ledger["workloads"]) == set(WORKLOADS)
    for name, entry in ledger["workloads"].items():
        assert entry["problems"] == [], name
        for metric in DECLARED["end_to_end"]:
            assert metric["name"] in entry["end_to_end"], (name, metric["name"])
        for metric in DECLARED["per_layer"]:
            assert metric["name"] in entry["per_layer"], (name, metric["name"])
        for key in list(entry["end_to_end"]) + list(entry["per_layer"]):
            assert NAME.fullmatch(key), key


def test_self_times_are_non_negative_and_account_for_the_traced_wall(ledger):
    for name, entry in ledger["workloads"].items():
        layers = {k: v["value"] for k, v in entry["per_layer"].items()}
        self_s = [v for k, v in layers.items() if k.endswith(".self_s") and v is not None]
        assert all(value >= 0.0 for value in self_s), name
        # self_s is reported net of the tracer's own cost, so that cost is
        # the third term of the identity.
        accounted = (
            sum(self_s) + layers["trace.unattributed_s"] + layers["trace.overhead_s"]
        )
        assert accounted == pytest.approx(entry["traced_wall_s"], rel=0.02), name


def test_manifest_says_how_the_numbers_were_made(ledger):
    manifest = ledger["manifest"]
    for key in ("seed", "repeats", "nproc", "python", "numpy", "loop", "caches"):
        assert key in manifest
    assert ledger["paper_table3_max_abs_err"] < 0.02
    for entry in ledger["workloads"].values():
        assert entry["config"]["dropped"] == []
        assert entry["config"]["sha256"]
        assert len(entry["fingerprint"]) == 64


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line_has_exactly_the_declared_metrics(trace):
    done = subprocess.run(
        RUN + ["--workload", "decision_burst", "--seed", "7", "--seconds", "1",
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in section}
    for metric in section:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", "_work"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "grnet_day",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
