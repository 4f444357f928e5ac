"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([])
        assert excinfo.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_experiment_id_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "Z"])

    def test_lvn_time_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lvn", "--time", "noon"])


class TestCaseStudy:
    def test_prints_tables_and_decisions(self, capsys):
        assert main(["case-study"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Table 3" in out
        for exp in ("Experiment A", "Experiment B", "Experiment C", "Experiment D"):
            assert exp in out
        assert "Erratum" in out  # the Experiment A note


class TestExperiment:
    @pytest.mark.parametrize("exp_id", ["A", "B", "C", "D"])
    def test_each_experiment_runs(self, capsys, exp_id):
        assert main(["experiment", exp_id]) == 0
        out = capsys.readouterr().out
        assert "Decision (ours)" in out
        assert "Dijkstra step table" in out

    def test_experiment_a_reports_correction(self, capsys):
        main(["experiment", "A"])
        out = capsys.readouterr().out
        assert "download from U4" in out
        assert "paper printed U5" in out


class TestLvn:
    def test_default_8am_column(self, capsys):
        assert main(["lvn"]) == 0
        out = capsys.readouterr().out
        assert "Patra-Athens" in out
        assert "0.0831" in out  # 8am exact value 0.083158

    def test_time_option(self, capsys):
        assert main(["lvn", "--time", "4pm"]) == 0
        out = capsys.readouterr().out
        assert "1.5440" in out  # Thessaloniki-Athens @4pm

    def test_normalization_constant_option(self, capsys):
        main(["lvn", "--normalization-constant", "5"])
        out = capsys.readouterr().out
        assert "K=5" in out


class TestSimulate:
    def test_small_run_prints_metrics(self, capsys):
        code = main(
            [
                "simulate",
                "--catalog-size", "6",
                "--requests-per-node", "4",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sessions" in out
        assert "transport cost" in out

    def test_admission_report_counts_the_last_drain_cohort(self, capsys):
        argv = ["simulate", "--requests-per-node", "3", "--admission-queue-capacity", "4"]
        assert main(argv) == 0
        rows = dict(
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
            if line.count("|") == 1
        )
        # Every request was admitted at once, each in its own drain tick.
        assert rows["Offered"] == rows["Admitted immediately"] == "22"
        assert rows["Largest cohort"] == "1"
        assert rows["Drain cohorts"] == "22"

    def test_policy_options_accepted(self, capsys):
        code = main(
            [
                "simulate",
                "--catalog-size", "6",
                "--requests-per-node", "3",
                "--placement", "lru",
                "--selection", "minhop",
                "--switching", "never",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["simulate", "obs"])
    def test_decision_cache_size_rejected(self, command, capsys):
        # The epoch memo is always on behind the built-in VRA: no knob.
        with pytest.raises(SystemExit):
            main([command, "--decision-cache-size", "256"])
        assert "--decision-cache-size" in capsys.readouterr().err

    def test_placement_option_accepted(self, capsys):
        code = main(
            [
                "simulate",
                "--catalog-size", "4",
                "--requests-per-node", "3",
                "--placement", "prefix",
                "--prefix-minutes", "12",
            ]
        )
        assert code == 0
        assert "sessions" in capsys.readouterr().out

    def test_bad_placement_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--placement", "mru"])

    def test_report_flag_prints_analysis(self, capsys):
        code = main(
            [
                "simulate",
                "--catalog-size", "4",
                "--requests-per-node", "3",
                "--report",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Run analysis" in out
        assert "Sources (by bytes served):" in out

    def test_custom_topology_file(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        assert main(["export-grnet", str(path), "--time", "8am"]) == 0
        code = main(
            [
                "simulate",
                "--topology", str(path),
                "--catalog-size", "4",
                "--requests-per-node", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sessions" in out


class TestExportGrnet:
    def test_export_writes_valid_topology(self, capsys, tmp_path):
        from repro.io import load_topology

        path = tmp_path / "grnet.json"
        assert main(["export-grnet", str(path)]) == 0
        topology = load_topology(path)
        assert topology.node_count == 6
        assert topology.link_count == 7
        assert all(link.background_mbps == 0.0 for link in topology.links())

    def test_export_with_traffic_column(self, tmp_path):
        from repro.io import load_topology

        path = tmp_path / "grnet-8am.json"
        assert main(["export-grnet", str(path), "--time", "8am"]) == 0
        topology = load_topology(path)
        assert topology.link_named("Patra-Athens").background_mbps == pytest.approx(0.2)

    def test_bad_time_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["export-grnet", str(tmp_path / "x.json"), "--time", "noon"])


class TestPlacement:
    def test_comparison_table_covers_all_policies(self, capsys):
        code = main(
            [
                "placement",
                "--requests-per-node", "3",
                "--catalog-size", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Placement-policy comparison" in out
        for kind in ("dma", "prefix", "partial"):
            assert kind in out
        assert "replay determinism" not in out  # gates only with --check

    def test_check_runs_replay_gates(self, capsys):
        code = main(
            [
                "placement",
                "--requests-per-node", "2",
                "--catalog-size", "4",
                "--check",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replay determinism (dma rerun): PASS" in out

    def test_bad_knob_rejected(self):
        with pytest.raises(SystemExit):
            main(["placement", "--prefix-minutes", "nope"])

    def test_a_failed_replay_gate_exits_1(self, capsys, monkeypatch):
        from repro.experiments.placement import PlacementComparison

        monkeypatch.setattr(PlacementComparison, "gates_passed", property(lambda self: False))
        assert main(["placement", "--requests-per-node", "1", "--catalog-size", "2"]) == 1
        assert "placement replay gate failed" in capsys.readouterr().err


class TestChaos:
    FAST = ["chaos", "--duration-hours", "0.5", "--requests-per-node", "3",
            "--seed", "11"]

    def test_prints_resilience_report(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "resilience report" in out
        assert "availability" in out
        assert "seed 11" in out

    def test_json_output_is_valid(self, capsys):
        import json

        assert main(self.FAST + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 11
        assert "availability" in payload
        assert set(payload["faults_injected"]) == {
            "link-flap", "link-degrade", "server-crash",
            "disk-failure", "snmp-blackout",
        }

    def test_show_faults_prints_log(self, capsys):
        assert main(self.FAST + ["--show-faults"]) == 0
        out = capsys.readouterr().out
        assert "inject" in out

    def test_min_availability_floor_gates_exit_code(self, capsys):
        assert main(self.FAST + ["--min-availability", "0.0"]) == 0
        assert main(self.FAST + ["--min-availability", "1.01"]) == 1
        assert "below floor" in capsys.readouterr().err

    def test_recovered_floor_and_stall_bound_gate_exit_code(self, capsys):
        assert main(self.FAST + ["--min-recovered", "1000000"]) == 1
        assert "recovered sessions 0 below floor 1000000" in capsys.readouterr().err
        assert main(self.FAST + ["--max-p95-stall-s", "-1"]) == 1
        assert "above bound -1.0 s" in capsys.readouterr().err

    def test_replays_identically(self, capsys):
        assert main(self.FAST + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.FAST + ["--json"]) == 0
        assert capsys.readouterr().out == first

    def test_bad_rate_type_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--link-flap-rate", "often"])

    def test_breaker_threshold_is_gone(self, capsys):
        # The circuit breakers were deleted: the option is unknown.
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--breaker-threshold", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --breaker-threshold 2" in capsys.readouterr().err


class TestObs:
    FAST = ["obs", "--requests-per-node", "2", "--catalog-size", "3",
            "--sample-period", "300"]

    def test_summary_reports_instruments_and_spans(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "Telemetry summary" in out
        assert "instruments:" in out
        assert "spans:" in out
        assert "hottest links" in out

    def test_flash_crowd_scenario_runs(self, capsys):
        """The crowd gathers at the first GRNET node, U1 (Athens)."""
        argv = ["obs", "--scenario", "flash-crowd", "--requests-per-node", "1",
                "--catalog-size", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Telemetry summary" in out
        assert "placement.points_awarded{server=U1}" in out
        assert "service.sessions_completed                              6" in out

    def test_jsonl_export_is_valid_and_diverse(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.jsonl"
        assert main(self.FAST + ["--format", "jsonl", "--out", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) > 100
        assert {"sample", "counter", "histogram", "span"} <= {r["kind"] for r in rows}
        families = {r["name"] for r in rows if r["kind"] == "sample"}
        # The acceptance bar: at least five distinct instrument families.
        assert len(families) >= 5

    def test_csv_export_has_header_and_rows(self, capsys):
        assert main(self.FAST + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "kind,name,labels,time,value,count,mean,p50,p95,max"
        assert len(lines) > 10

    def test_timeline_renders_sparklines(self, capsys):
        assert main(self.FAST + ["--timeline", "link.utilization"]) == 0
        out = capsys.readouterr().out
        assert "link.utilization" in out
        assert "peak" in out

    def test_timeline_draws_every_sample_not_the_ring(self, capsys, tmp_path):
        """The timeline reads the run's row stream, which holds every
        sample of a series: more than a day's 1,440 at one a minute."""
        import json

        path = tmp_path / "run.jsonl"
        argv = self.FAST[:-1] + ["20", "--timeline", "link.utilization"]
        assert main(argv + ["--format", "jsonl", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        samples = [r for r in rows if r["kind"] == "sample" and r["name"] == "link.utilization"]
        per_link = {}
        for row in samples:
            per_link.setdefault(row["labels"]["link"], []).append(row["time"])
        assert max(len(times) for times in per_link.values()) > 1_440
        first = min(row["time"] for row in samples)
        last = max(row["time"] for row in samples)
        assert f"t = {first:g} .. {last:g} s" in out

    def test_trace_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(self.FAST + ["--trace-out", str(path)]) == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["kind"] == "manifest" and rows[-1]["kind"] == "footer"
        # The span is a request's one trail: each VRA decision is one
        # entry of its cluster columns.
        assert {r["kind"] for r in rows[1:-1]} == {"span"}
        assert any(r["clusters"]["cost"] for r in rows[1:-1])

    def test_same_seed_runs_replay_byte_identically(self, capsys, tmp_path):
        """Two same-seed runs in one process stream the same bytes: no
        wall-clock value outside the footer, and request ids count per
        service, not per process."""
        outputs = []
        for run in range(2):
            out = tmp_path / f"rows{run}.jsonl"
            assert main(self.FAST + ["--format", "jsonl", "--out", str(out)]) == 0
            outputs.append(out.read_bytes().splitlines())
        capsys.readouterr()
        first, second = outputs
        assert b'"kind": "footer"' in first[-1]
        assert first[:-1] == second[:-1]
        assert any(b'"kind": "span"' in line for line in first)

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["obs", "--scenario", "tsunami"])


class TestBadValues:
    """A value the parser cannot check but the model rejects ends the run
    with one ``repro: error:`` line on stderr and exit code 2, not a
    traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["obs", "--sample-period", "0"], "sample period must be positive"),
            (["simulate", "--topology", "{tmp}/missing.json"], "cannot load topology"),
            (["chaos", "--duration-hours", "-1"], "duration must be positive"),
            (["simulate", "--cluster-mb", "0"], "cluster size must be positive"),
            (["simulate", "--switching", "period:x"], "switching period must be an integer"),
            # A negative count would silently turn its layer off.
            (["chaos", "--retry-attempts", "-1"], "retry_attempts must be >= 0"),
            (["chaos", "--max-stats-age", "0"], "max_stats_age_s must be positive"),
            (["simulate", "--admission-queue-capacity", "-3"],
             "admission_queue_capacity must be >= 0"),
        ],
    )
    def test_a_rejected_value_is_one_error_line(self, argv, message, capsys, tmp_path):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["simulate", "placement", "obs"])
    def test_catalog_size_must_be_positive(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--catalog-size", "0"])
        assert excinfo.value.code == 2
        assert "--catalog-size: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["simulate", "--title-mb", "-5"], "--title-mb"),
            (["simulate", "--title-minutes", "0"], "--title-minutes"),
            (["placement", "--title-mb", "0"], "--title-mb"),
            (["placement", "--title-minutes", "nan"], "--title-minutes"),
        ],
    )
    def test_non_positive_size_or_job_count_is_a_usage_error(self, argv, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {option}: must be a positive" in capsys.readouterr().err
