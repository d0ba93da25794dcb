"""Fault tolerance at the service layer, plus the fault-plane CLI surface.

Covers the recovery contracts that live above the engine: per-job retry
policies and deadlines carried in a submission's config, shared-pool eviction
when a job dies of worker loss (a broken pool must not poison later
jobs), failed-job observability, cancellation racing completion, and the
``repro run``/``submit``/``serve`` fault-plane behavior.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.engine.config import ExecutionConfig
from repro.exceptions import (
    DeadlineExceededError,
    InvalidInstanceError,
    JobCancelledError,
    TaskRetryExhaustedError,
)
from repro.faults import RetryPolicy
from repro.planner import Environment, JobSpec
from repro.service import CANCELLED, DONE, FAILED, JobService
from repro.service.scheduler import JobScheduler
from repro.service.service import collect_reduce, spec_records

SPEC = JobSpec.a2a([3, 5, 2, 7, 4], q=12)

ENV = Environment(num_workers=2, memory_bytes=1 << 30)

#: Fast deterministic policy (backoff in the low milliseconds).
POLICY = RetryPolicy(max_attempts=6, backoff_base=0.001, backoff_max=0.01)

#: Pinned geometry so injected decisions are stable across test runs.
GEOMETRY = dict(num_reduce_tasks=16)

#: A job with enough reducers (21) to split into 16 reduce tasks, the only
#: tasks an injected fault can hit.
CHAOS_SPEC = JobSpec.a2a([3, 5, 2, 6, 4] * 2, q=12)


def _submit_exec(service, *, config, job_id, spec=SPEC):
    return service.submit(
        spec,
        records=spec_records(spec),
        reduce_fn=collect_reduce,
        config=config,
        job_id=job_id,
    )


class TestPerJobPolicy:
    def test_injected_crashes_recovered_under_per_job_retry(self):
        with JobService(slots=1, env=ENV) as service:
            clean = _submit_exec(
                service,
                config=ExecutionConfig(backend="serial", **GEOMETRY),
                job_id="clean",
                spec=CHAOS_SPEC,
            )
            assert clean.wait(timeout=30.0).state == DONE
            faulty = _submit_exec(
                service,
                config=ExecutionConfig(
                    backend="serial",
                    faults="crash=0.2,seed=7",
                    retry=POLICY,
                    **GEOMETRY,
                ),
                job_id="faulty",
                spec=CHAOS_SPEC,
            )
            assert faulty.wait(timeout=30.0).state == DONE
            # Recovery is invisible in results but visible in telemetry.
            assert faulty.result().outputs == clean.result().outputs
            counters = service.metrics_snapshot()["counters"]
            assert counters["engine.task_retries"] >= 1
            by_id = {
                record.job_id: record
                for record in service.observations.snapshot()
            }
            assert by_id["faulty"].status == DONE
            assert by_id["faulty"].task_retries >= 1
            assert by_id["clean"].task_retries == 0

    def test_per_job_deadline_fails_the_job(self):
        with JobService(slots=1, env=ENV) as service:
            handle = service.submit(
                SPEC,
                records=spec_records(SPEC),
                reduce_fn=_slow_collect,
                config=ExecutionConfig(
                    backend="serial", deadline=0.01, **GEOMETRY
                ),
                job_id="late",
            )
            status = handle.wait(timeout=30.0)
            assert status.state == FAILED
            assert "DeadlineExceededError" in status.error
            with pytest.raises(DeadlineExceededError):
                handle.result()
            # The failure is a first-class observation.
            record = service.observations.snapshot()[-1]
            assert record.job_id == "late"
            assert record.status == FAILED
            assert "DeadlineExceededError" in record.error

    def test_invalid_deadline_rejected_at_submit(self):
        # The deadline rides in the submission's config, which rejects
        # it when built, so no job is ever recorded.
        with JobService(slots=1, env=ENV) as service:
            with pytest.raises(InvalidInstanceError, match="deadline"):
                service.submit(SPEC, config=ExecutionConfig(deadline=0.0))
            assert service.list() == []


class TestPoolEvictionOnBreakage:
    def test_worker_death_evicts_pool_and_next_job_recovers(self):
        with JobService(slots=1, env=ENV) as service:
            doomed = _submit_exec(
                service,
                config=ExecutionConfig(
                    backend="processes",
                    num_workers=2,
                    faults="kill=1.0,seed=1",
                    retry=RetryPolicy(
                        max_attempts=2, backoff_base=0.0, jitter=0.0
                    ),
                    **GEOMETRY,
                ),
                job_id="doomed",
            )
            status = doomed.wait(timeout=60.0)
            assert status.state == FAILED
            assert "worker" in status.error
            with pytest.raises(TaskRetryExhaustedError):
                doomed.result()
            counters = service.metrics_snapshot()["counters"]
            assert counters["pools.evicted"] == 1
            # The poisoned shared pool is gone: the next job with the
            # same shape gets a freshly built backend and succeeds.
            healthy = _submit_exec(
                service,
                config=ExecutionConfig(
                    backend="processes", num_workers=2, **GEOMETRY
                ),
                job_id="healthy",
            )
            assert healthy.wait(timeout=60.0).state == DONE
            serial = _submit_exec(
                service,
                config=ExecutionConfig(backend="serial", **GEOMETRY),
                job_id="serial-ref",
            )
            assert serial.wait(timeout=30.0).state == DONE
            assert healthy.result().outputs == serial.result().outputs

    def test_plain_failures_do_not_evict(self):
        with JobService(slots=1, env=ENV) as service:
            handle = service.submit(
                SPEC,
                records=spec_records(SPEC),
                reduce_fn=_angry_collect,
                config=ExecutionConfig(
                    backend="processes", num_workers=2, **GEOMETRY
                ),
                job_id="buggy",
            )
            assert handle.wait(timeout=30.0).state == FAILED
            counters = service.metrics_snapshot()["counters"]
            assert counters.get("pools.evicted", 0) == 0


class TestCancelRacingCompletion:
    def test_cancel_landing_after_store_discards_the_result(self):
        # The narrowest race: the worker has stored its result and is one
        # instruction from committing DONE when cancel() lands.  The
        # commit must become CANCELLED and the stored result must vanish.
        with JobService(slots=1, env=ENV) as service:
            original_put = service.results.put

            def racing_put(result):
                original_put(result)
                assert service.cancel(result.job_id) is True

            service.results.put = racing_put
            try:
                handle = _submit_exec(
                    service,
                    config=ExecutionConfig(backend="serial", **GEOMETRY),
                    job_id="raced",
                )
                status = handle.wait(timeout=30.0)
            finally:
                service.results.put = original_put
            assert status.state == CANCELLED
            with pytest.raises(JobCancelledError):
                handle.result()
            with pytest.raises(KeyError):
                service.results.fetch("raced")

    def test_scheduler_cancel_after_dispatch_reports_false(self):
        import threading

        started = threading.Event()
        release = threading.Event()
        ran: list[str] = []

        def blocker():
            started.set()
            assert release.wait(10.0)
            ran.append("blocker")

        scheduler = JobScheduler(slots=1)
        try:
            scheduler.submit("blocker", blocker)
            assert started.wait(5.0)
            # Already dispatched: cancellation is the caller's problem.
            assert scheduler.cancel_queued("blocker") is False
            scheduler.submit("queued", lambda: ran.append("queued"))
            # Still queued behind the blocker: cancellation is exact.
            assert scheduler.cancel_queued("queued") is True
            release.set()
            assert scheduler.drain(timeout=10.0)
            assert ran == ["blocker"]
            assert "queued" not in scheduler.dispatch_order
        finally:
            release.set()
            scheduler.close(timeout=10.0)


def _slow_collect(key, values):
    time.sleep(0.05)
    yield from collect_reduce(key, values)


def _angry_collect(key, values):
    raise ValueError("user bug, not a fault")
    yield  # pragma: no cover


class TestFaultPlaneCLI:
    def test_run_with_injection_reports_recovery(self, capsys):
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
                "--inject-faults",
                "crash=0.2,seed=7",
                "--max-attempts",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "faults" in out
        assert "retries=" in out
        assert "spec=crash=0.2,seed=7" in out

    def test_run_rejects_malformed_spec(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run",
                    "--app",
                    "similarity",
                    "--inject-faults",
                    "cosmic=0.5",
                ]
            )
        assert excinfo.value.code == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_submit_rejection_exits_nonzero_with_error_line(
        self, monkeypatch, capsys
    ):
        small_env = Environment(num_workers=2, memory_bytes=1 << 20)
        monkeypatch.setattr(
            Environment, "detect", classmethod(lambda cls: small_env)
        )
        status = main(["submit", "--sizes", "3000,3000", "--q", "10000"])
        captured = capsys.readouterr()
        assert status == 1
        error_line = json.loads(captured.err.strip().splitlines()[-1])
        assert error_line["event"] == "error"
        assert error_line["state"] == "rejected"
        assert error_line["error"]

    def test_serve_sigterm_drains_and_exits_cleanly(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        obs_log = tmp_path / "obs.ndjson"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--obs-log",
                str(obs_log),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            request = {
                "id": "j1",
                "spec": {"kind": "a2a", "q": 12, "sizes": [3, 5, 2, 7, 4]},
            }
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and proc.poll() is None:
                if obs_log.exists() and obs_log.read_text().strip():
                    break  # the job finished and was flushed to the log
                time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30.0)
        except Exception:
            proc.kill()
            proc.communicate(timeout=10.0)
            raise
        assert proc.returncode == 0, (out, err)
        lines = [
            json.loads(line) for line in out.splitlines() if line.strip()
        ]
        shutdown_states = [
            line["state"]
            for line in lines
            if line.get("event") == "shutdown"
        ]
        assert shutdown_states == ["draining", "complete"], lines
        results = [line for line in lines if line.get("event") == "result"]
        assert [r["id"] for r in results] == ["j1"]
        assert results[0]["state"] == "done"
        # The graceful path flushed the observation log before exiting.
        logged = [
            json.loads(line)
            for line in obs_log.read_text().splitlines()
            if line.strip()
        ]
        assert [entry["job_id"] for entry in logged] == ["j1"]
