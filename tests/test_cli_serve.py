"""CLI tests: ``repro serve`` / ``repro submit`` and atomic --json-out."""

from __future__ import annotations

import json
import os

import pytest

from repro import io as repro_io
from repro.cli import main
from repro.planner import JobSpec, plan
from repro.service.service import collect_reduce, spec_records

from oracle import validate_against_simulator


def _parse_ndjson(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _write_requests(path, requests) -> str:
    path.write_text("".join(json.dumps(request) + "\n" for request in requests))
    return str(path)


def _assert_matches_oracle(line: dict, spec: JobSpec) -> None:
    """The executed job's result line agrees with the reference simulator
    run on the same plan over the same placeholder records."""
    schema = plan(spec).schema()
    _, oracle, report = validate_against_simulator(
        schema, spec_records(spec), collect_reduce
    )
    assert report.ok, report.summary()
    assert line["chosen"] == schema.algorithm
    assert line["outputs"] == len(oracle.outputs)
    assert line["reducers_used"] == oracle.metrics.num_reducers
    assert line["max_load"] == oracle.metrics.max_reducer_load
    assert line["communication_cost"] == oracle.metrics.communication_cost


class TestServe:
    def test_round_trips_spec_to_result(self, tmp_path, capsys):
        requests = [
            {
                "id": "j1",
                "spec": {"kind": "a2a", "q": 12, "sizes": [3, 5, 2, 7, 4]},
            },
            {
                "id": "j2",
                "spec": {"kind": "a2a", "q": 12, "sizes": [3, 5, 2, 7, 4]},
            },
        ]
        exit_code = main(
            ["serve", "--input", _write_requests(tmp_path / "jobs.ndjson", requests)]
        )
        assert exit_code == 0
        lines = _parse_ndjson(capsys.readouterr().out)
        results = {
            line["id"]: line for line in lines if line["event"] == "result"
        }
        assert set(results) == {"j1", "j2"}
        for result in results.values():
            assert result["state"] == "done"
            assert result["outputs"] == result["num_reducers"] > 0
        # Same spec twice in one serve session: the second is a cache hit.
        assert [results["j1"]["cache_hit"], results["j2"]["cache_hit"]].count(
            True
        ) == 1
        # Status lines stream every lifecycle transition.
        j1_states = [
            line["state"]
            for line in lines
            if line["event"] == "status" and line.get("id") == "j1"
        ]
        assert j1_states == ["queued", "running", "done"]

    def test_plan_only_and_multiway_requests(self, tmp_path, capsys):
        requests = [
            {
                "id": "planned",
                "spec": {"kind": "x2y", "q": 9, "x_sizes": [4, 2], "y_sizes": [3, 3]},
                "execute": False,
            },
            {
                "id": "multi",
                "spec": {"kind": "multiway", "q": 9, "sizes": [2] * 6, "r": 3},
            },
        ]
        assert main(
            ["serve", "--quiet", "--input",
             _write_requests(tmp_path / "jobs.ndjson", requests)]
        ) == 0
        lines = _parse_ndjson(capsys.readouterr().out)
        results = {line["id"]: line for line in lines if line["event"] == "result"}
        assert results["planned"]["state"] == "done"
        assert "outputs" not in results["planned"]
        assert results["multi"]["state"] == "done"
        assert results["multi"]["chosen"]
        _assert_matches_oracle(
            results["multi"], JobSpec.multiway([2] * 6, q=9, r=3)
        )

    def test_malformed_lines_do_not_abort_the_loop(self, tmp_path, capsys):
        path = tmp_path / "jobs.ndjson"
        path.write_text(
            "this is not json\n"
            + json.dumps({"no_spec": True}) + "\n"
            + json.dumps({"id": "bad-spec", "spec": {"kind": "nope", "q": 1}})
            + "\n"
            + json.dumps(
                {"id": "ok", "spec": {"kind": "a2a", "q": 9, "sizes": [3, 5]}}
            )
            + "\n"
        )
        assert main(["serve", "--quiet", "--input", str(path)]) == 0
        lines = _parse_ndjson(capsys.readouterr().out)
        errors = [line for line in lines if line["event"] == "error"]
        assert len(errors) == 3
        assert errors[0]["line"] == 1
        results = [line for line in lines if line["event"] == "result"]
        assert len(results) == 1 and results[0]["id"] == "ok"

    def test_mistyped_request_fields_do_not_abort_the_loop(self, tmp_path, capsys):
        path = tmp_path / "jobs.ndjson"
        path.write_text(
            json.dumps(
                {
                    "id": "bad-priority",
                    "spec": {"kind": "a2a", "q": 9, "sizes": [3, 5]},
                    "priority": "urgent",
                }
            )
            + "\n"
            + json.dumps({"id": "scalar-sizes", "spec": {"kind": "a2a", "q": 9, "sizes": 5}})
            + "\n"
            + json.dumps(
                {"id": "ok", "spec": {"kind": "a2a", "q": 9, "sizes": [3, 5]}}
            )
            + "\n"
        )
        assert main(["serve", "--quiet", "--input", str(path)]) == 0
        lines = _parse_ndjson(capsys.readouterr().out)
        errors = [line for line in lines if line["event"] == "error"]
        assert {error["line"] for error in errors} == {1, 2}
        results = [line for line in lines if line["event"] == "result"]
        assert len(results) == 1 and results[0]["id"] == "ok"

    def test_infeasible_spec_reports_failed_result(self, tmp_path, capsys):
        requests = [
            {"id": "doomed", "spec": {"kind": "a2a", "q": 5, "sizes": [3, 4]}}
        ]
        assert main(
            ["serve", "--quiet", "--input",
             _write_requests(tmp_path / "jobs.ndjson", requests)]
        ) == 0
        lines = _parse_ndjson(capsys.readouterr().out)
        (result,) = [line for line in lines if line["event"] == "result"]
        assert result["state"] == "failed"
        assert "InfeasibleInstanceError" in result["error"]


class TestSubmit:
    def test_human_readable_summary(self, capsys):
        assert main(["submit", "--sizes", "3,5,2,7", "--q", "12"]) == 0
        out = capsys.readouterr().out
        assert "state     : done" in out
        assert "chosen    :" in out
        assert "outputs   :" in out

    def test_json_result_line(self, capsys):
        assert main(
            ["submit", "--sizes", "3,5,2,7", "--q", "12", "--json"]
        ) == 0
        (line,) = _parse_ndjson(capsys.readouterr().out)
        assert line["event"] == "result"
        assert line["state"] == "done"
        assert line["outputs"] == line["num_reducers"] > 0

    def test_plan_only_flag(self, capsys):
        assert main(
            ["submit", "--sizes", "3,5,2,7", "--q", "12", "--plan-only",
             "--json"]
        ) == 0
        (line,) = _parse_ndjson(capsys.readouterr().out)
        assert line["state"] == "done"
        assert "outputs" not in line

    def test_multiway_runs_on_engine(self, capsys):
        assert main(
            ["submit", "--sizes", "2,2,2,2,2,2", "--q", "9", "--r", "3",
             "--json"]
        ) == 0
        (line,) = _parse_ndjson(capsys.readouterr().out)
        assert line["state"] == "done"
        _assert_matches_oracle(
            line, JobSpec.multiway([2] * 6, q=9, r=3)
        )

    def test_infeasible_submit_fails_with_result_line(self, capsys):
        assert main(["submit", "--sizes", "3,4", "--q", "5"]) == 1
        err = capsys.readouterr().err
        (line,) = _parse_ndjson(err)
        assert line["state"] == "failed"

    def test_missing_sizes_is_a_user_error(self, capsys):
        assert main(["submit", "--q", "5"]) == 1
        assert "submit needs --sizes" in capsys.readouterr().err


class TestAtomicJsonOut:
    def test_plan_json_out_is_complete_json(self, tmp_path, capsys):
        target = tmp_path / "plan.json"
        assert main(
            ["plan", "--sizes", "3,5,2,7", "--q", "12", "--json-out",
             str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["chosen"]
        # No temp-file litter in the target directory.
        assert os.listdir(tmp_path) == ["plan.json"]

    def test_failed_replace_preserves_existing_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text('{"precious": true}')

        def boom(src, dst):
            raise OSError("simulated crash at rename time")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            repro_io.atomic_write_text(str(target), '{"new": 1}')
        # The original content is intact and no temp file is left behind.
        assert json.loads(target.read_text()) == {"precious": True}
        assert os.listdir(tmp_path) == ["out.json"]

    def test_atomic_write_writes_full_content(self, tmp_path):
        target = tmp_path / "data.json"
        repro_io.atomic_write_text(str(target), '{"a": 1}\n')
        repro_io.atomic_write_text(str(target), '{"a": 2}\n')
        assert json.loads(target.read_text()) == {"a": 2}
        assert os.listdir(tmp_path) == ["data.json"]

    def test_atomic_write_uses_umask_permissions(self, tmp_path):
        # NamedTemporaryFile's private 0600 must not leak into artifacts:
        # the result should carry the same mode a plain open() would.
        target = tmp_path / "perms.json"
        repro_io.atomic_write_text(str(target), "{}\n")
        plain = tmp_path / "plain.json"
        plain.write_text("{}\n")
        assert (target.stat().st_mode & 0o777) == (plain.stat().st_mode & 0o777)
