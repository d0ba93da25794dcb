"""End-to-end observability: service traces, metrics, logs, and the CLI."""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import main
from repro.engine.backends import ProcessBackend
from repro.engine.config import ExecutionConfig
from repro.obs.store import load_observations, summarize_observations
from repro.obs.trace import Tracer, validate_chrome_trace
from repro.planner import JobSpec
from repro.service import JobService
from repro.service.events import EventLog, JobEvent


def _parse_ndjson(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


SPEC_SIZES = [3, 5, 2, 7, 4]


def _failing_reduce(key, values):
    raise RuntimeError("reduce failed")


class TestServiceTracing:
    def test_executed_job_produces_nested_trace(self, tmp_path):
        tracer = Tracer()
        obs_log = tmp_path / "obs.ndjson"
        service = JobService(slots=1, tracer=tracer, obs_log=str(obs_log))
        try:
            handle = service.submit_spec(JobSpec.a2a(SPEC_SIZES, 12))
            assert handle.wait(timeout=60.0).state == "done"
            service.drain()
        finally:
            service.close()

        spans = tracer.spans()
        by_name: dict[str, list] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        for required in (
            "job",
            "submit",
            "queue",
            "plan",
            "map",
            "shuffle",
            "reduce",
            "reduce_task",
            "post",
            "store",
            "job:queued",
            "job:running",
            "job:done",
        ):
            assert required in by_name, sorted(by_name)

        # Every span belongs to the job's trace (trace id == job id).
        job_id = handle.job_id
        assert {span.trace_id for span in spans} == {job_id}

        # Nesting: service phases parent to the root job span, task spans
        # to their phase span.
        root = by_name["job"][0]
        for name in ("submit", "queue", "plan", "map", "store"):
            assert by_name[name][0].parent_id == root.span_id, name
        reduce_span = by_name["reduce"][0]
        for task in by_name["reduce_task"]:
            assert task.parent_id == reduce_span.span_id

        # The trace exports as valid Chrome trace-event JSON.
        from repro.obs.trace import to_chrome_trace

        events = validate_chrome_trace(to_chrome_trace(spans))
        assert len(events) == len(spans)

        # The completed job left one observation in memory and on disk.
        records = load_observations(str(obs_log))
        assert [r.job_id for r in records] == [job_id]
        assert records[0].backend and records[0].wall_seconds >= 0

    def test_two_jobs_get_distinct_trace_ids(self):
        tracer = Tracer()
        service = JobService(slots=1, tracer=tracer)
        try:
            first = service.submit_spec(JobSpec.a2a(SPEC_SIZES, 12))
            second = service.submit_spec(JobSpec.a2a(SPEC_SIZES, 12))
            assert first.wait(timeout=60.0).state == "done"
            assert second.wait(timeout=60.0).state == "done"
            service.drain()
        finally:
            service.close()
        trace_ids = {span.trace_id for span in tracer.spans()}
        assert trace_ids == {first.job_id, second.job_id}

    def test_metrics_snapshot_counts_jobs_and_cache(self):
        service = JobService(slots=1)
        try:
            first = service.submit_spec(JobSpec.a2a(SPEC_SIZES, 12))
            second = service.submit_spec(JobSpec.a2a(SPEC_SIZES, 12))
            first.wait(timeout=60.0)
            second.wait(timeout=60.0)
            service.drain()
            snapshot = service.metrics_snapshot()
        finally:
            service.close()
        assert snapshot["counters"]["jobs.submitted"] == 2
        assert snapshot["counters"]["jobs.done"] == 2
        assert snapshot["counters"]["plan_cache.hits"] == 1
        assert snapshot["counters"]["plan_cache.misses"] == 1
        assert snapshot["histograms"]["job.latency_seconds"]["count"] == 2
        assert snapshot["plan_cache"]["hit_rate"] == 0.5
        assert "scheduler.queue_depth" in snapshot["gauges"]

    def test_untraced_service_stays_quiet(self):
        service = JobService(slots=1)
        try:
            handle = service.submit_spec(JobSpec.a2a(SPEC_SIZES, 12))
            assert handle.wait(timeout=60.0).state == "done"
            service.drain()
        finally:
            service.close()
        assert len(service.tracer) == 0
        assert service.tracer.spans() == []


class TestServiceHealth:
    def _repro_threads(self):
        return [
            t for t in threading.enumerate() if t.name.startswith("repro-")
        ]

    def test_health_snapshot_slos_after_jobs(self):
        service = JobService(slots=2)
        try:
            good = service.submit_spec(JobSpec.a2a(SPEC_SIZES, 12))
            # Sizes 7 and 6 cannot pair under q=12: planning fails, the
            # job lands in 'failed', and the rolling failure rate sees it.
            bad = service.submit_spec(JobSpec.a2a([7, 6], 12))
            assert good.wait(timeout=60.0).state == "done"
            assert bad.wait(timeout=60.0).state == "failed"
            service.drain()
            health = service.health_snapshot()
        finally:
            service.close()
        assert health["status"] == "ok"
        assert health["slots"] == 2
        assert health["jobs_done"] == 1 and health["jobs_failed"] == 1
        assert health["window_jobs"] == 2
        assert health["failure_rate"] == pytest.approx(0.5)
        assert health["queue_p95_s"] >= health["queue_p50_s"] >= 0.0
        assert health["uptime_seconds"] > 0.0
        assert health["peak_rss_bytes"] > 0
        assert health["pool_rebuilds"] == 0
        closed = service.health_snapshot()
        assert closed["status"] == "closing"
        assert closed["sampler_running"] is False

    def test_sampler_starts_lazily_and_close_stops_it(self):
        service = JobService(slots=1)
        try:
            # Plan-only work never starts the sampler thread.
            service.submit_spec(
                JobSpec.a2a(SPEC_SIZES, 12), execute=False
            ).wait(timeout=60.0)
            assert not service.health_snapshot()["sampler_running"]
            # The first executed job starts it.
            service.submit_spec(JobSpec.a2a(SPEC_SIZES, 12)).wait(
                timeout=60.0
            )
            assert service.health_snapshot()["sampler_running"]
            assert self._repro_threads()
        finally:
            service.close()
        # No stray repro-* threads after close — the chaos-smoke contract.
        assert self._repro_threads() == []

    def test_observation_carries_commit_hardware_and_resources(
        self, tmp_path
    ):
        obs_log = tmp_path / "obs.ndjson"
        service = JobService(slots=1, obs_log=str(obs_log))
        try:
            handle = service.submit_spec(JobSpec.a2a(SPEC_SIZES, 12))
            assert handle.wait(timeout=60.0).state == "done"
            service.drain()
        finally:
            service.close()
        (record,) = load_observations(str(obs_log))
        assert record.commit, "commit must be resolved (env or git)"
        assert record.hardware_class.endswith("w")
        assert record.peak_rss_bytes > 0
        assert record.cpu_seconds >= 0.0

    def test_service_profiler_accumulates_phases_across_jobs(self):
        from repro.obs.profiler import profile_export

        tracer = Tracer(profile=True)
        service = JobService(slots=1, tracer=tracer)
        try:
            for _ in range(2):
                handle = service.submit_spec(JobSpec.a2a(SPEC_SIZES, 12))
                assert handle.wait(timeout=60.0).state == "done"
            service.drain()
        finally:
            service.close()
        # Every job's child tracer inherited the profile mode.
        assert {s.trace_id for s in tracer.spans() if s.name == "map"} == {
            "job-0001",
            "job-0002",
        }
        phases = profile_export(tracer.spans(), service.sampler)["phases"]
        assert {"map", "shuffle", "reduce", "post"} <= set(phases)
        assert phases["map"]["count"] == 2
        assert phases["map"]["functions"] and phases["reduce"]["functions"]
        assert phases["map"]["peak_rss_bytes"] > 0
        # close() stopped the service's sampler.
        assert not service.sampler.running


    @pytest.mark.parametrize("owned", [False, True])
    def test_failed_job_is_summarized_under_its_backend(self, owned):
        # A run that raises is logged against the backend it ran on (a
        # caller-owned Backend by its name), never as plan-only.
        backend = ProcessBackend(max_workers=2) if owned else "processes"
        service = JobService(slots=1)
        try:
            handle = service.submit(
                JobSpec.a2a([3, 5, 2, 7], 12),
                records=list("abcd"),
                reduce_fn=_failing_reduce,
                config=ExecutionConfig(backend=backend, num_workers=2),
            )
            assert handle.wait(timeout=60.0).state == "failed"
        finally:
            service.close()
            if owned:
                backend.close()
        (observation,) = service.observations.snapshot()
        assert observation.status == "failed"
        assert observation.error == "RuntimeError: reduce failed"
        assert (observation.backend, observation.workers) == ("processes", 2)
        (row,) = summarize_observations([observation])
        assert row["backend"] == "processes" and row["jobs"] == 1


class TestEventLogOrdering:
    def test_seq_is_gapless_and_matches_append_order(self):
        log = EventLog()
        emitted = [
            log.emit(JobEvent(job_id=f"j{i}", state="queued"))
            for i in range(5)
        ]
        assert [event.seq for event in emitted] == [1, 2, 3, 4, 5]
        assert [event.seq for event in log.snapshot()] == [1, 2, 3, 4, 5]

    def test_concurrent_emitters_never_share_a_seq(self):
        log = EventLog()

        def emit_many(job_id: str) -> None:
            for _ in range(100):
                log.emit(JobEvent(job_id=job_id, state="running"))

        threads = [
            threading.Thread(target=emit_many, args=(f"j{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seqs = [event.seq for event in log.snapshot()]
        assert seqs == sorted(seqs)
        assert seqs == list(range(1, 401))

    def test_events_carry_monotonic_timestamp(self):
        log = EventLog()
        first = log.emit(JobEvent(job_id="a", state="queued"))
        second = log.emit(JobEvent(job_id="a", state="running"))
        assert second.monotonic >= first.monotonic
        payload = second.to_dict()
        assert payload["seq"] == 2 and "monotonic" in payload

    def test_tracer_receives_lifecycle_instants(self):
        tracer = Tracer()
        log = EventLog(tracer=tracer)
        log.emit(JobEvent(job_id="job-7", state="done"))
        spans = tracer.spans()
        assert [span.name for span in spans] == ["job:done"]
        assert spans[0].trace_id == "job-7"
        assert spans[0].attrs["seq"] == 1


class TestObservabilityCli:
    def test_submit_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        exit_code = main(
            [
                "submit",
                "--sizes",
                "3,5,2,7",
                "--q",
                "12",
                "--trace",
                str(trace_path),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "trace:" in captured.err
        events = validate_chrome_trace(json.loads(trace_path.read_text()))
        names = {event["name"] for event in events}
        for required in ("job", "submit", "queue", "plan", "map", "reduce"):
            assert required in names, sorted(names)

    def test_submit_profile_writes_valid_export(self, tmp_path, capsys):
        from repro.obs.profiler import validate_collapsed

        profile_path = tmp_path / "profile.json"
        exit_code = main(
            [
                "submit",
                "--sizes",
                "3,5,2,7",
                "--q",
                "12",
                "--profile",
                str(profile_path),
            ]
        )
        assert exit_code == 0
        assert "profile:" in capsys.readouterr().err
        payload = json.loads(profile_path.read_text())
        assert {"map", "shuffle", "reduce", "post"} <= set(payload["phases"])
        assert payload["peak_rss_bytes"] > 0
        assert validate_collapsed(payload["collapsed"]) == len(
            payload["collapsed"]
        )

    def test_serve_streams_spans_and_answers_metrics(self, tmp_path, capsys):
        requests = tmp_path / "jobs.ndjson"
        requests.write_text(
            json.dumps(
                {"id": "j1", "spec": {"kind": "a2a", "q": 12, "sizes": SPEC_SIZES}}
            )
            + "\n"
            + json.dumps({"metrics": True})
            + "\n"
            + json.dumps({"health": True})
            + "\n"
        )
        trace_path = tmp_path / "trace.json"
        obs_path = tmp_path / "obs.ndjson"
        exit_code = main(
            [
                "serve",
                "--input",
                str(requests),
                "--trace",
                str(trace_path),
                "--obs-log",
                str(obs_path),
            ]
        )
        assert exit_code == 0
        lines = _parse_ndjson(capsys.readouterr().out)
        kinds = {line["event"] for line in lines}
        assert {"status", "result", "span", "metrics", "health"} <= kinds
        metrics_line = next(l for l in lines if l["event"] == "metrics")
        assert metrics_line["counters"]["jobs.submitted"] >= 1
        assert "plan_cache" in metrics_line
        health_line = next(l for l in lines if l["event"] == "health")
        assert health_line["status"] == "ok"
        for key in (
            "slot_utilization",
            "queue_p50_s",
            "queue_p95_s",
            "failure_rate",
            "pool_rebuilds",
            "peak_rss_bytes",
        ):
            assert key in health_line, key
        validate_chrome_trace(json.loads(trace_path.read_text()))
        assert len(load_observations(str(obs_path))) == 1

    def test_metrics_command_summarizes_log(self, tmp_path, capsys):
        requests = tmp_path / "jobs.ndjson"
        requests.write_text(
            "".join(
                json.dumps(
                    {
                        "id": f"j{i}",
                        "spec": {"kind": "a2a", "q": 12, "sizes": SPEC_SIZES},
                    }
                )
                + "\n"
                for i in range(2)
            )
        )
        obs_path = tmp_path / "obs.ndjson"
        assert (
            main(
                [
                    "serve",
                    "--input",
                    str(requests),
                    "--quiet",
                    "--obs-log",
                    str(obs_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["metrics", "--log", str(obs_path)]) == 0
        table = capsys.readouterr().out
        assert "job observations (2 records)" in table
        assert "cache_hit_rate" in table

        assert main(["metrics", "--log", str(obs_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["observations"] == 2
        assert payload["rows"][0]["jobs"] == 2

    def test_metrics_command_missing_log_fails_cleanly(self, tmp_path, capsys):
        assert main(["metrics", "--log", str(tmp_path / "nope.ndjson")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_metrics_command_rejects_non_object_line(self, tmp_path, capsys):
        log = tmp_path / "obs.ndjson"
        log.write_text(
            '{"job_id": "a", "fingerprint": "f", "cache_hit": false}\n'
            "[1, 2]\n"
            '{"job_id": "b", "fingerprint": "f", "cache_hit": false}\n'
        )
        assert main(["metrics", "--log", str(log)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert ":2:" in err[0]
