"""Tests for the ``repro run``/``plan`` subcommands and ``--version``."""

from __future__ import annotations

import json
import threading

import pytest

import repro
from repro.cli import build_parser, main


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestRunSubcommand:
    def test_parser_accepts_run(self):
        args = build_parser().parse_args(
            ["run", "--app", "similarity", "--q", "40", "--backend", "processes"]
        )
        assert args.command == "run"
        assert args.app == "similarity"
        assert args.backend == "processes"

    def test_similarity_run_prints_metrics(self, capsys):
        status = main(
            [
                "run",
                "--app",
                "similarity",
                "--q",
                "50",
                "--m",
                "16",
                "--backend",
                "serial",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "similarity join" in out
        assert "job metrics" in out
        assert "engine metrics" in out
        assert "serial" in out

    def test_skew_join_run_on_processes(self, capsys):
        status = main(
            [
                "run",
                "--app",
                "skew-join",
                "--q",
                "60",
                "--tuples",
                "120",
                "--keys",
                "6",
                "--skew",
                "1.3",
                "--backend",
                "processes",
                "--num-workers",
                "2",
                "--seed",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "skew join" in out
        assert "heavy keys" in out
        assert "processes" in out

    def test_unknown_backend_rejected_by_parser(self):
        # The choices follow the backend registry, which has no threads.
        for name in ("gpu", "threads"):
            with pytest.raises(SystemExit) as excinfo:
                main(
                    ["run", "--app", "similarity", "--q", "40", "--backend", name]
                )
            assert excinfo.value.code == 2

    def test_non_positive_workers_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run",
                    "--app",
                    "similarity",
                    "--q",
                    "40",
                    "--num-workers",
                    "0",
                ]
            )
        assert excinfo.value.code == 2

    def test_unknown_method_is_reported_as_error(self, capsys):
        status = main(
            [
                "run",
                "--app",
                "skew-join",
                "--q",
                "40",
                "--tuples",
                "200",
                "--keys",
                "5",
                "--skew",
                "1.6",
                "--seed",
                "1",
                "--method",
                "magic",
            ]
        )
        captured = capsys.readouterr()
        assert status == 1
        assert "unknown X2Y method" in captured.err


    def test_run_writes_trace_and_profile_together(self, tmp_path, capsys):
        from repro.obs.profiler import validate_collapsed
        from repro.obs.trace import validate_chrome_trace

        trace_path = tmp_path / "t.json"
        profile_path = tmp_path / "p.json"
        status = main(
            [
                "run", "--app", "similarity", "--q", "200", "--m", "60",
                "--trace", str(trace_path), "--profile", str(profile_path),
            ]
        )
        assert status == 0
        err = capsys.readouterr().err
        assert "trace:" in err and "profile:" in err
        events = validate_chrome_trace(json.loads(trace_path.read_text()))
        # One tracer serves both flags: the trace is the profiled run's,
        # yet its events carry no function tables.
        assert {"map", "shuffle", "reduce", "post"} <= {
            event["name"] for event in events
        }
        assert "functions" not in trace_path.read_text()
        payload = json.loads(profile_path.read_text())
        phases = payload["phases"]
        assert set(phases) == {"map", "shuffle", "reduce", "post"}
        assert phases["map"]["functions"] and phases["reduce"]["functions"]
        assert payload["peak_rss_bytes"] > 0
        assert validate_collapsed(payload["collapsed"]) > 0
        # The run's sampler stopped with the run.
        assert not [
            t for t in threading.enumerate() if t.name == "repro-sampler"
        ]


class TestPlanSubcommand:
    def test_plan_prints_candidates_and_choice(self, capsys):
        status = main(["plan", "--sizes", "3,5,2,7,4", "--q", "12"])
        out = capsys.readouterr().out
        assert status == 0
        assert "chosen    :" in out
        assert "candidates" in out
        assert "rationale :" in out

    def test_plan_explain_shows_cost_columns(self, capsys):
        status = main(["plan", "--sizes", "3,5,2,7,4", "--q", "12", "--explain"])
        out = capsys.readouterr().out
        assert status == 0
        assert "communication_cost" in out
        assert "makespan" in out

    def test_plan_json_out_round_trips(self, tmp_path, capsys):
        target = tmp_path / "plan.json"
        status = main(
            ["plan", "--sizes", "3,5,2,7,4", "--q", "12",
             "--objective", "min-communication", "--json-out", str(target)]
        )
        assert status == 0
        from repro.planner import Plan

        loaded = Plan.from_json(target.read_text())
        assert loaded.spec.objective == "min-communication"
        assert loaded.schema().verify().valid
        assert loaded.chosen in {c.method for c in loaded.candidates}

    def test_plan_x2y_and_multiway(self, capsys):
        assert main(["plan", "--x-sizes", "9,2,3", "--y-sizes", "5,3", "--q", "17"]) == 0
        assert "x2y" in capsys.readouterr().out
        assert main(["plan", "--sizes", "2,2,2,2", "--q", "9", "--r", "3"]) == 0
        assert "multiway" in capsys.readouterr().out

    def test_plan_pinned_method(self, capsys):
        status = main(
            ["plan", "--sizes", "3,5,2", "--q", "12", "--method", "greedy"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "pinned" in out

    def test_plan_rejects_bad_combinations(self, capsys):
        assert main(["plan", "--q", "12"]) == 1
        assert "needs --sizes" in capsys.readouterr().err
        assert main(
            ["plan", "--sizes", "3,4", "--x-sizes", "3", "--y-sizes",
             "4", "--q", "12"]
        ) == 1
        assert "cannot be combined" in capsys.readouterr().err
        assert main(["plan", "--x-sizes", "3,4", "--q", "12"]) == 1
        assert "both --x-sizes and --y-sizes" in capsys.readouterr().err

    def test_plan_infeasible_is_reported(self, capsys):
        assert main(["plan", "--sizes", "7,8", "--q", "10"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_plan_unknown_method_lists_choices(self, capsys):
        assert main(
            ["plan", "--sizes", "3,4", "--q", "12", "--method", "magic"]
        ) == 1
        err = capsys.readouterr().err
        assert "unknown A2A method 'magic'" in err
        assert "bin_pairing" in err


class TestPlanAutoMode:
    def test_run_plan_auto_similarity(self, capsys):
        status = main(
            ["run", "--app", "similarity", "--q", "50", "--m", "14",
             "--seed", "5", "--plan", "auto"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "plan      :" in out
        assert "planner-resolved backend=" in out
        assert "engine metrics" in out

    def test_run_plan_auto_skew_join(self, capsys):
        status = main(
            ["run", "--app", "skew-join", "--q", "60", "--tuples", "150",
             "--keys", "6", "--seed", "2", "--plan", "auto",
             "--objective", "min-communication"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "per-heavy-key methods" in out

    def test_run_explicit_backend_still_wins_under_plan_auto(self, capsys):
        status = main(
            ["run", "--app", "similarity", "--q", "50", "--m", "12",
             "--plan", "auto", "--backend", "serial"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "serial" in out
