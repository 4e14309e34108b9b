"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import build_simulation, quick_config
from repro.analysis import format_records
from repro.campaigns import AdvertiserWorkloadGenerator
from repro.cli import build_parser, main
from repro.countermeasures import (
    evaluate_attack_protection,
    evaluate_workload_impact,
    recommended_rules,
    run_protected_experiment,
)
from repro.exec import ShardExecutor
from repro.io import experiment_report_to_dict, uniqueness_report_to_dict
from repro.scenarios import ScenarioSpec, SweepRunner, expand_grid

#: A very small scale keeps every CLI invocation fast.
FACTOR = ["--factor", "80"]


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "command", [["scenario", "sweep", "fdvt-risk"], ["serve"]], ids=["sweep", "serve"]
    )
    def test_wall_clock_retries_is_not_an_option(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--wall-clock-retries"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --wall-clock-retries" in capsys.readouterr().err

    def test_defaults(self):
        args = build_parser().parse_args(["uniqueness"])
        assert args.factor == 20
        assert args.probabilities == [0.5, 0.8, 0.9, 0.95]


class TestDatasetCommand:
    def test_writes_catalog_and_panel(self, tmp_path, capsys):
        exit_code = main(
            ["dataset", *FACTOR, "--output-dir", str(tmp_path / "data")]
        )
        assert exit_code == 0
        assert (tmp_path / "data" / "catalog.json").exists()
        assert (tmp_path / "data" / "panel.json").exists()
        captured = capsys.readouterr().out
        assert "catalog" in captured and "panel" in captured


class TestUniquenessCommand:
    def test_prints_table_and_writes_json(self, tmp_path, capsys):
        output = tmp_path / "table1.json"
        exit_code = main(
            [
                "uniqueness",
                *FACTOR,
                "--probabilities",
                "0.5",
                "0.9",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "least_popular" in captured
        assert "random" in captured
        payload = json.loads(output.read_text())
        assert set(payload) == {"least_popular", "random"}
        assert "0.9" in payload["random"]["estimates"]


class TestNanotargetingCommand:
    def test_runs_21_campaigns(self, tmp_path, capsys):
        output = tmp_path / "table2.json"
        exit_code = main(["nanotargeting", *FACTOR, "--output", str(output)])
        assert exit_code == 0
        payload = json.loads(output.read_text())
        assert payload["n_campaigns"] == 21
        assert "successful campaigns" in capsys.readouterr().out

    def test_fail_on_success_flag(self, capsys):
        exit_code = main(["nanotargeting", *FACTOR, "--fail-on-success"])
        # The unprotected platform lets nanotargeting succeed, so the
        # regression-check mode must signal failure.
        assert exit_code == 1


class TestFdvtReportCommand:
    def test_prints_risk_rows(self, capsys):
        exit_code = main(["fdvt-report", *FACTOR, "--limit", "5"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "risk breakdown" in captured
        assert "panel user #" in captured


class TestCountermeasuresCommand:
    def test_reports_attack_reduction(self, capsys):
        exit_code = main(["countermeasures", *FACTOR, "--workload-size", "50"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "protected successes: 0/21" in captured
        assert "attack reduction" in captured


class TestStudyCommandParity:
    """The study commands print and write exactly what direct study calls give.

    The references wire each study by hand on fresh simulations, apart from
    the scenario layer the commands run through.
    """

    SCALE = ["--factor", "80", "--seed", "3"]

    @staticmethod
    def simulation():
        return build_simulation(quick_config(80), seed=3)

    def test_uniqueness(self, tmp_path, capsys):
        output = tmp_path / "table1.json"
        exit_code = main(
            [
                "uniqueness", *self.SCALE,
                "--probabilities", "0.5", "0.9", "--output", str(output),
            ]
        )
        assert exit_code == 0
        simulation = self.simulation()
        model = simulation.uniqueness_model()
        reports = [
            model.estimate(strategy, probabilities=(0.5, 0.9))
            for strategy in simulation.strategies()
        ]
        table = format_records([report.table_row() for report in reports])
        assert capsys.readouterr().out == f"{table}\nwrote {output}\n"
        payload = {
            report.strategy_name: uniqueness_report_to_dict(report) for report in reports
        }
        assert output.read_text() == json.dumps(payload, indent=2, sort_keys=True)

    def test_nanotargeting(self, tmp_path, capsys):
        output = tmp_path / "table2.json"
        assert main(["nanotargeting", *self.SCALE, "--output", str(output)]) == 0
        simulation = self.simulation()
        report = simulation.nanotargeting_experiment(seed=3).run(
            candidates=simulation.panel
        )
        expected = (
            f"{format_records(report.table_rows())}\n"
            f"successful campaigns: {report.success_count}/{report.n_campaigns}  "
            f"total cost: €{report.total_cost_eur():.2f}  "
            f"successful cost: €{report.successful_cost_eur():.2f}\n"
            f"wrote {output}\n"
        )
        assert capsys.readouterr().out == expected
        assert output.read_text() == json.dumps(
            experiment_report_to_dict(report), indent=2, sort_keys=True
        )

    def test_countermeasures(self, capsys):
        # 300 benign campaigns: enough that the rejected count moves with
        # the workload's seed (at 50, none is rejected on any seed).
        exit_code = main(["countermeasures", *self.SCALE, "--workload-size", "300"])
        assert exit_code == 0
        simulation = self.simulation()
        experiment = simulation.nanotargeting_experiment(seed=3)
        targets = experiment.select_targets(simulation.panel)
        baseline = experiment.run(targets)
        protected_simulation = self.simulation()
        protected = run_protected_experiment(
            protected_simulation.campaign_api,
            protected_simulation.delivery_engine,
            [protected_simulation.panel.get(target.user_id) for target in targets],
            list(recommended_rules()),
            experiment=protected_simulation.nanotargeting_experiment(seed=3),
        )
        workload = AdvertiserWorkloadGenerator(simulation.catalog).generate(300, seed=3)
        # On the baseline's API, after the baseline ran.
        impact = evaluate_workload_impact(
            simulation.campaign_api, workload, [recommended_rules()[0]]
        )
        reduction = evaluate_attack_protection(baseline, protected).attack_reduction
        expected = (
            f"baseline successes : {baseline.success_count}/{baseline.n_campaigns}\n"
            f"protected successes: {protected.success_count}/{protected.n_campaigns}\n"
            f"attack reduction   : {reduction:.0%}\n"
            f"benign impact      : {impact.rejected_campaigns}/{impact.total_campaigns} "
            f"campaigns rejected ({impact.rejection_rate:.2%})\n"
        )
        assert capsys.readouterr().out == expected


def _spec_payload(**overrides) -> dict:
    spec = dict(
        name="ext",
        study="uniqueness",
        factor=80,
        seed=3,
        strategies=["random"],
        probabilities=[0.9],
        n_bootstrap=10,
    )
    spec.update(overrides)
    return spec


class TestScenarioSweepSpecFile:
    """`scenario sweep --spec file.json`: external grids on the cached path."""

    def test_grid_file_round_trips_the_result_set(self, tmp_path, capsys):
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(
            json.dumps(
                {
                    "base": _spec_payload(),
                    "grid": {"strategies": [["least_popular"], ["random"]]},
                }
            )
        )
        output = tmp_path / "results.json"
        exit_code = main(
            ["scenario", "sweep", "--spec", str(spec_file), "--output", str(output)]
        )
        assert exit_code == 0
        assert "swept 2 scenarios" in capsys.readouterr().out
        # The CLI output is exactly the ResultSet the library produces for
        # the same grid — the file-driven path rides the same sweep.
        grid = expand_grid(
            ScenarioSpec.from_dict(_spec_payload()),
            {"strategies": [("least_popular",), ("random",)]},
        )
        expected = SweepRunner(executor=ShardExecutor()).run(grid)
        payload = json.loads(output.read_text())
        # JSON turns the confidence-interval tuples into lists, so compare
        # the expected dicts after the same round-trip.
        assert payload == {"scenarios": json.loads(json.dumps(expected.to_dicts()))}

    def test_list_file_runs_each_row(self, tmp_path, capsys):
        spec_file = tmp_path / "rows.json"
        spec_file.write_text(
            json.dumps(
                [
                    _spec_payload(name="row-a"),
                    _spec_payload(name="row-b", study="fdvt_risk", risk_users=4),
                ]
            )
        )
        exit_code = main(["scenario", "sweep", "--spec", str(spec_file)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "row-a" in out and "row-b" in out

    def test_factor_and_seed_overrides_apply_to_file_specs(self, tmp_path, capsys):
        spec_file = tmp_path / "base.json"
        spec_file.write_text(json.dumps({"base": _spec_payload(seed=None)}))
        output = tmp_path / "results.json"
        exit_code = main(
            [
                "scenario",
                "sweep",
                "--spec",
                str(spec_file),
                "--seed",
                "3",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text())
        assert [entry["seed"] for entry in payload["scenarios"]] == [3]

    @pytest.mark.parametrize(
        "content,message",
        [
            ("not json", "not valid JSON"),
            ("{}", "'base' spec"),
            ('{"nope": 1}', "'base' spec"),
            ('{"base": {"name": "x"}, "grid": {}, "extra": 1}', "unknown top-level"),
            ("[]", "spec list is empty"),
            ('{"base": {"name": "x", "study": "nope"}}', "unknown study"),
            (
                '[{"name": "x", "study": "uniqueness", "n_bootstraps": 1}]',
                "unknown scenario fields",
            ),
            ('{"base": {"name": "x", "study": "uniqueness"}, "grid": [1]}', "grid"),
            ('{"base": {"name": "x", "study": "uniqueness"}, "grid": []}', "grid"),
            (
                '[{"name": "dup", "study": "uniqueness"},'
                ' {"name": "dup", "study": "fdvt_risk"}]',
                "duplicate scenario names",
            ),
            (
                '{"base": {"name": "x", "study": "uniqueness"},'
                ' "grid": {"api_tier": "modern_2020"}}',
                "axis 'api_tier' must be a JSON list",
            ),
            ('[["name"]]', "must be a JSON object"),
            (
                '{"base": {"name": "x", "study": "uniqueness"},'
                ' "grid": {"seed": [1, 1]}}',
                "duplicate scenario names",
            ),
        ],
        ids=[
            "not-json",
            "empty-object",
            "no-base",
            "extra-keys",
            "empty-list",
            "bad-study",
            "unknown-field",
            "grid-not-object",
            "grid-falsy-list",
            "duplicate-names",
            "grid-axis-not-list",
            "row-not-object",
            "grid-duplicate-names",
        ],
    )
    def test_malformed_spec_files_exit_with_diagnostics(
        self, tmp_path, content, message
    ):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "sweep", "--spec", str(spec_file)])
        assert message in str(excinfo.value)

class TestErrorHygiene:
    """Library failures exit with a one-line diagnostic, never a traceback."""

    def test_configuration_errors_exit_2(self, capsys):
        exit_code = main(["scenario", "run", "no-such-scenario", *FACTOR])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro-facebook: configuration error:")
        assert "no-such-scenario" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["dataset", "--factor", "0"],
            ["fdvt-report", "--factor", "0"],
            ["uniqueness", "--factor", "0"],
            ["cache", "warm", "--factor", "0"],
        ],
        ids=["dataset", "fdvt-report", "uniqueness", "cache-warm"],
    )
    def test_factor_below_one_exits_2(self, command, tmp_path, capsys):
        if command[0] == "cache":
            command = [*command, "--root", str(tmp_path / "cache")]
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err == "repro-facebook: configuration error: factor must be >= 1\n"

    @pytest.mark.parametrize(
        "command", [["scenario", "list"], ["faults", "--tasks", "4"]],
        ids=["scenario-list", "faults"],
    )
    def test_closed_stdout_exits_1_quietly(self, command):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *command],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as process:
            process.stdout.close()
            err = process.stderr.read()
            assert process.wait(timeout=120) == 1
        assert err == b""

    def test_execution_errors_exit_3(self, capsys):
        exit_code = main(["fdvt-report", *FACTOR, "--user-id", "999999"])
        assert exit_code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro-facebook: PanelError:")

    def test_fdvt_report_without_a_qualifying_panellist_exits_3(self, capsys):
        exit_code = main(["fdvt-report", *FACTOR, "--min-interests", "1000000"])
        assert exit_code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro-facebook: PanelError: no panellist holds")

    def test_doomed_chaos_sweep_exits_3_with_shard_context(
        self, tmp_path, capsys
    ):
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(
            json.dumps({"base": _spec_payload(), "grid": {"seed": [1, 2]}})
        )
        # --fault-seed 1 dooms grid row 0 twice in a row, which a
        # --retries 1 budget cannot outlast; on_error defaults to raise.
        exit_code = main(
            [
                "scenario", "sweep", "--spec", str(spec_file),
                "--retries", "1", "--fault-rate", "0.9", "--fault-seed", "1",
            ]
        )
        assert exit_code == 3
        assert "ShardFailedError" in capsys.readouterr().err


class TestScenarioSweepFaultTolerance:
    def _grid_file(self, tmp_path):
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(
            json.dumps({"base": _spec_payload(), "grid": {"seed": [1, 2]}})
        )
        return spec_file

    def test_chaos_sweep_output_is_bit_identical_to_fault_free(
        self, tmp_path, capsys
    ):
        spec_file = self._grid_file(tmp_path)
        clean, chaotic = tmp_path / "clean.json", tmp_path / "chaos.json"
        assert main(
            ["scenario", "sweep", "--spec", str(spec_file), "--output", str(clean)]
        ) == 0
        assert main(
            [
                "scenario", "sweep", "--spec", str(spec_file),
                "--retries", "3", "--fault-rate", "0.9", "--fault-seed", "1",
                "--output", str(chaotic),
            ]
        ) == 0
        assert json.loads(chaotic.read_text()) == json.loads(clean.read_text())
        assert "retried" in capsys.readouterr().out

    def test_on_error_skip_dead_letters_and_exits_1(self, tmp_path, capsys):
        spec_file = self._grid_file(tmp_path)
        output = tmp_path / "partial.json"
        exit_code = main(
            [
                "scenario", "sweep", "--spec", str(spec_file),
                "--retries", "1", "--fault-rate", "0.9", "--fault-seed", "1",
                "--on-error", "skip", "--output", str(output),
            ]
        )
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "1 dead-lettered" in captured.out
        assert "failed after 2 attempt(s)" in captured.err
        # The partial results still cover the surviving row.
        assert len(json.loads(output.read_text())["scenarios"]) == 1

    def test_manifest_resume_round_trip(self, tmp_path, capsys):
        spec_file = self._grid_file(tmp_path)
        manifest = tmp_path / "manifest.json"
        clean, resumed = tmp_path / "clean.json", tmp_path / "resumed.json"
        assert main(
            [
                "scenario", "sweep", "--spec", str(spec_file),
                "--manifest", str(manifest), "--output", str(clean),
            ]
        ) == 0
        payload = json.loads(manifest.read_text())
        assert [e["status"] for e in payload["entries"]] == ["completed"] * 2
        assert main(
            [
                "scenario", "sweep", "--spec", str(spec_file),
                "--resume", str(manifest), "--output", str(resumed),
            ]
        ) == 0
        assert "2 resumed" in capsys.readouterr().out
        assert json.loads(resumed.read_text()) == json.loads(clean.read_text())

    def test_manifest_with_old_notes_resumes(self, tmp_path, capsys):
        # Older manifests carry a run-level "notes" object; new ones do not.
        spec_file = self._grid_file(tmp_path)
        manifest = tmp_path / "manifest.json"
        clean, resumed = tmp_path / "clean.json", tmp_path / "resumed.json"
        assert main(
            [
                "scenario", "sweep", "--spec", str(spec_file), "--retries", "1",
                "--manifest", str(manifest), "--output", str(clean),
            ]
        ) == 0
        payload = json.loads(manifest.read_text())
        assert "notes" not in payload
        manifest.write_text(json.dumps({**payload, "notes": {"retry_clock": "sim"}}))
        assert main(
            [
                "scenario", "sweep", "--spec", str(spec_file), "--retries", "1",
                "--resume", str(manifest), "--output", str(resumed),
            ]
        ) == 0
        assert "2 resumed" in capsys.readouterr().out
        assert json.loads(resumed.read_text()) == json.loads(clean.read_text())

    def test_resume_with_a_bad_manifest_exits_2(self, tmp_path, capsys):
        spec_file = self._grid_file(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        exit_code = main(
            ["scenario", "sweep", "--spec", str(spec_file), "--resume", str(bad)]
        )
        assert exit_code == 2
        assert "configuration error" in capsys.readouterr().err


class TestFaultsCommand:
    def test_describes_plan_and_previews_decisions(self, capsys):
        exit_code = main(["faults", "--seed", "7", "--tasks", "8"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "fault plan:" in out
        assert out.count("retry policy") == 1
        assert "retry policy:\n  max_attempts: 4\n" in out
        assert "preview:" in out
        assert "convergence: guaranteed" in out

    def test_flags_unconverging_budgets(self, capsys):
        exit_code = main(["faults", "--retries", "1"])
        assert exit_code == 0
        assert "NOT guaranteed" in capsys.readouterr().out

    def test_same_seed_prints_the_same_schedule(self, capsys):
        main(["faults", "--seed", "9"])
        first = capsys.readouterr().out
        main(["faults", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestServeCommand:
    """`repro-facebook serve`: the always-on reach service smoke path."""

    def test_serves_a_chaotic_trace_with_parity(self, tmp_path, capsys):
        output = tmp_path / "serve.json"
        exit_code = main(
            [
                "serve", *FACTOR, "--seed", "3",
                "--duration", "5", "--rps", "4", "--tenants", "2",
                "--fault-rate", "0.2", "--retries", "3",
                "--verify-parity", "--output", str(output),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "served" in out and "shed rate" in out
        assert "parity: all" in out
        payload = json.loads(output.read_text())
        assert payload["parity_ok"] is True
        assert payload["summary"]["status_counts"].get("ok", 0) >= 1
        assert payload["service"]["counters"]["submitted"] == sum(
            payload["summary"]["status_counts"].values()
        )

    def test_saved_trace_replays_bit_identically(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        args = ["serve", *FACTOR, "--seed", "5", "--duration", "4", "--rps", "3"]
        assert main(
            [*args, "--trace-out", str(trace_file), "--output", str(first)]
        ) == 0
        assert trace_file.exists()
        assert main(
            [*args, "--trace", str(trace_file), "--output", str(second)]
        ) == 0
        capsys.readouterr()
        # Wall-clock timing differs between runs; everything virtual must not.
        a, b = json.loads(first.read_text()), json.loads(second.read_text())
        assert a["summary"] == b["summary"]
        assert a["service"]["counters"] == b["service"]["counters"]

    def test_a_foreign_trace_is_served_with_its_unknown_ids_rejected(
        self, tmp_path, capsys
    ):
        # A trace drawn from a larger catalog names ids this one lacks:
        # admission answers those requests invalid, the rest are served.
        trace_file, output = tmp_path / "trace-f50.json", tmp_path / "replay.json"
        assert main(
            [
                "serve", "--factor", "50", "--seed", "7", "--duration", "6",
                "--rps", "4", "--tenants", "2", "--trace-out", str(trace_file),
            ]
        ) == 0
        assert main(
            [
                "serve", *FACTOR, "--seed", "7", "--trace", str(trace_file),
                "--verify-parity", "--output", str(output),
            ]
        ) == 0
        assert "parity: all" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        counts = payload["summary"]["status_counts"]
        assert counts.get("invalid", 0) > 0 and counts.get("ok", 0) > 0
        assert payload["parity_ok"] is True

    def test_service_errors_exit_4_with_one_line(self, capsys, monkeypatch):
        from repro.errors import OverloadedError

        def explode(args):
            raise OverloadedError("queue full", retry_after_seconds=1.0)

        monkeypatch.setattr("repro.cli.cmd_serve", explode)
        exit_code = main(["serve", *FACTOR])
        assert exit_code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro-facebook: service error: OverloadedError:")


class TestScenarioSweepSpecFileErrors:
    def test_missing_file_and_conflicting_arguments(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read file"):
            main(["scenario", "sweep", "--spec", str(tmp_path / "absent.json")])
        spec_file = tmp_path / "ok.json"
        spec_file.write_text(json.dumps([_spec_payload()]))
        with pytest.raises(SystemExit, match="not both"):
            main(
                ["scenario", "sweep", "uniqueness-table1", "--spec", str(spec_file)]
            )
        with pytest.raises(SystemExit, match="belongs in the --spec"):
            main(
                [
                    "scenario",
                    "sweep",
                    "--spec",
                    str(spec_file),
                    "--grid",
                    "seed=1,2",
                ]
            )
        with pytest.raises(SystemExit, match="name .*--spec FILE.* is required"):
            main(["scenario", "sweep"])
