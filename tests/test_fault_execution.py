"""Execution tests for the fault plane: injection, retry, recovery.

The contract under test is the tentpole guarantee: with a fixed seed and
pinned task geometry, a run under injected faults produces outputs
byte-identical to a fault-free run on every backend — including the
process backend surviving real worker deaths via pool rebuild and
in-flight task replay.

Map/reduce functions are module-level so they survive pickling on the
``processes`` backend.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.core.instance import A2AInstance
from repro.core.selector import solve_a2a
from repro.dataset import as_dataset
from repro.engine.backends import BACKENDS, ProcessBackend
from repro.engine.config import ExecutionConfig
from repro.engine.engine import ExecutionEngine, execute_schema
from repro.exceptions import (
    DeadlineExceededError,
    InjectedFaultError,
    InvalidInstanceError,
    TaskRetryExhaustedError,
    TaskTimeoutError,
    WorkerLostError,
)
from repro.faults import FaultSpec, RetryPolicy

#: Pinned geometry: identical task decomposition on every backend, so the
#: seeded injector's decisions hit the same (phase, task, attempt) cells.
GEOMETRY = dict(map_chunk_size=2, num_reduce_tasks=4)

#: Fast deterministic policy for tests (backoff in the low milliseconds).
POLICY = RetryPolicy(max_attempts=6, backoff_base=0.001, backoff_max=0.01)

RECORDS = [
    "the quick brown fox",
    "the lazy dog",
    "the quick dog jumps",
    "a brown dog",
    "fox and dog and fox",
    "jumps over the lazy fox",
    "quick brown jumps",
    "dog and fox",
]


def word_map(record: str):
    for word in record.split():
        yield word, 1


def word_reduce(key, values):
    yield key, sum(values)


def slow_reduce(key, values):
    time.sleep(0.05)
    yield key, sum(values)


def map_dying_in_workers(record: str):
    """Kill the worker process that runs it; harmless in the parent."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    yield from word_map(record)


def schema_reduce(key, values):
    yield key, len(values)


def angry_reduce(key, values):
    raise ValueError("user bug, not a fault")
    yield  # pragma: no cover


def _engine(backend, **kwargs):
    merged = dict(
        map_fn=word_map,
        reduce_fn=word_reduce,
        backend=backend,
        num_workers=2,
        **GEOMETRY,
    )
    merged.update(kwargs)
    return ExecutionEngine(**merged)


@pytest.fixture(scope="module")
def fault_free_outputs():
    return _engine("serial").run(RECORDS).outputs


class TestCrossBackendIdentity:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_crash_injection_is_invisible_in_outputs(
        self, backend, fault_free_outputs
    ):
        result = _engine(
            backend, retry=POLICY, faults="crash=0.3,seed=11"
        ).run(RECORDS)
        assert result.outputs == fault_free_outputs
        assert result.engine.task_retries >= 1

    def test_retry_counts_identical_across_backends(self):
        # Determinism is stronger than identical outputs: every backend
        # must see the *same* injected failure scenario.
        retries = {
            backend: _engine(
                backend, retry=POLICY, faults="crash=0.3,seed=11"
            )
            .run(RECORDS)
            .engine.task_retries
            for backend in sorted(BACKENDS)
        }
        assert len(set(retries.values())) == 1, retries

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_kill_degrades_to_crash_off_process_backends(
        self, backend, fault_free_outputs
    ):
        result = _engine(
            backend, retry=POLICY, faults="kill=0.3,seed=5"
        ).run(RECORDS)
        assert result.outputs == fault_free_outputs
        assert result.engine.task_retries >= 1
        assert result.engine.pool_rebuilds == 0


class TestWorkerDeathRecovery:
    def test_broken_pool_is_rebuilt_and_lost_tasks_replayed(
        self, fault_free_outputs
    ):
        backend = ProcessBackend(max_workers=2)
        with backend:
            result = _engine(
                backend, retry=POLICY, faults="kill=0.4,seed=3"
            ).run(RECORDS)
            assert result.outputs == fault_free_outputs
            assert result.engine.pool_rebuilds >= 1
            assert backend.pool_rebuilds >= 1
            # The healed persistent pool keeps serving plain runs.
            assert _engine(backend).run(RECORDS).outputs == (
                fault_free_outputs
            )

    def test_worker_death_without_policy_heals_and_raises(
        self, fault_free_outputs
    ):
        # No fault-plane setting: the loss surfaces as WorkerLostError
        # (what fallback=True keys on), and the caller-owned pool is healed
        # exactly once and keeps serving.
        backend = ProcessBackend(max_workers=2)
        try:
            with pytest.raises(WorkerLostError):
                _engine(backend, map_fn=map_dying_in_workers).run(RECORDS)
            assert backend.pool_rebuilds == 1
            assert _engine(backend).run(RECORDS).outputs == (
                fault_free_outputs
            )
        finally:
            backend.close()

    def test_unrecoverable_worker_deaths_exhaust_with_context(self):
        result_error = None
        backend = ProcessBackend(max_workers=2)
        with backend:
            with pytest.raises(TaskRetryExhaustedError) as excinfo:
                _engine(
                    backend,
                    retry=RetryPolicy(
                        max_attempts=2, backoff_base=0.0, jitter=0.0
                    ),
                    faults="kill=1.0,seed=1",
                ).run(RECORDS)
            result_error = excinfo.value
        assert "lost to worker deaths" in str(result_error)
        assert isinstance(result_error.last_error, WorkerLostError)


class TestRetryBoundsAndClassification:
    def test_certain_crash_exhausts_after_max_attempts(self):
        with pytest.raises(TaskRetryExhaustedError) as excinfo:
            _engine(
                "serial",
                retry=RetryPolicy(
                    max_attempts=2, backoff_base=0.0, jitter=0.0
                ),
                faults="crash=1.0,seed=1",
            ).run(RECORDS)
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, InjectedFaultError)

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_user_errors_propagate_unretried(self, backend):
        calls = []

        def counting_reduce(key, values):
            calls.append(key)
            raise ValueError("user bug, not a fault")

        reduce_fn = (
            angry_reduce if backend == "processes" else counting_reduce
        )
        with pytest.raises(ValueError, match="user bug"):
            _engine(
                backend, reduce_fn=reduce_fn, retry=POLICY
            ).run(RECORDS)
        if backend == "serial":
            # Each reduce task observed the error at most once (keys are
            # unique to their task's partition, so a repeated key would
            # mean a retry): the fault plane must not retry or mask a
            # non-retryable failure.
            assert len(set(calls)) == len(calls)
            assert len(calls) <= GEOMETRY["num_reduce_tasks"]

    def test_transient_faults_are_recovered(self, fault_free_outputs):
        result = _engine(
            "serial", retry=POLICY, faults="transient=0.3,seed=2"
        ).run(RECORDS)
        assert result.outputs == fault_free_outputs
        assert result.engine.task_retries >= 1


class TestTimeoutsAndDeadlines:
    def test_task_timeout_abandons_and_exhausts(self):
        # Every attempt is delayed past the timeout, so the task is
        # abandoned max_attempts times and retries are exhausted with the
        # timeout as the underlying error.
        with pytest.raises(TaskRetryExhaustedError) as excinfo:
            _engine(
                "threads",
                retry=RetryPolicy(
                    max_attempts=2, backoff_base=0.0, jitter=0.0
                ),
                faults="delay=1.0:0.3,seed=1",
                task_timeout=0.05,
            ).run(RECORDS)
        assert isinstance(excinfo.value.last_error, TaskTimeoutError)

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_deadline_bounds_the_run(self, backend):
        with pytest.raises(DeadlineExceededError):
            _engine(
                backend, reduce_fn=slow_reduce, deadline=0.01
            ).run(RECORDS)

    def test_deadline_not_cured_by_retry(self):
        # The policy would retry timeouts, but a blown deadline is final.
        with pytest.raises(DeadlineExceededError):
            _engine(
                "serial",
                reduce_fn=slow_reduce,
                retry=POLICY,
                deadline=0.01,
            ).run(RECORDS)


class TestFallbackChain:
    def test_pool_construction_failure_falls_back(
        self, monkeypatch, fault_free_outputs
    ):
        def broken_pool(self):
            raise OSError("no more processes")

        monkeypatch.setattr(ProcessBackend, "_make_pool", broken_pool)
        result = _engine("processes", fallback=True).run(RECORDS)
        assert result.outputs == fault_free_outputs
        assert result.engine.backend in ("threads", "serial")
        assert result.engine.fallback_backend == result.engine.backend

    def test_single_use_source_is_rejected_before_any_task(self):
        # A fallback replays the run, which a bare generator cannot feed:
        # fail up front instead of running and then re-iterating it.
        pulled = []

        def records():
            for record in RECORDS:
                pulled.append(record)
                yield record

        with pytest.raises(InvalidInstanceError, match="from_factory"):
            _engine("processes", fallback=True).run(records())
        assert pulled == []

    def test_single_use_source_is_rejected_through_execute_schema(self):
        # The schema wrapper must keep the source single-use, or the
        # engine's up-front check cannot see it.
        instance = A2AInstance([1] * len(RECORDS), q=4)
        pulled = []

        def records():
            for record in RECORDS:
                pulled.append(record)
                yield record

        with pytest.raises(InvalidInstanceError, match="from_factory"):
            execute_schema(
                solve_a2a(instance),
                as_dataset(records()),
                schema_reduce,
                config=ExecutionConfig(backend="processes", fallback=True),
            )
        assert pulled == []

    def test_without_opt_in_the_failure_propagates(self, monkeypatch):
        def broken_pool(self):
            raise OSError("no more processes")

        monkeypatch.setattr(ProcessBackend, "_make_pool", broken_pool)
        with pytest.raises(OSError, match="no more processes"):
            _engine("processes").run(RECORDS)


class TestFaultPlaneOffIsPlainPath:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_no_knobs_no_counters(self, backend, fault_free_outputs):
        result = _engine(backend).run(RECORDS)
        assert result.outputs == fault_free_outputs
        assert result.engine.task_retries == 0
        assert result.engine.pool_rebuilds == 0
        assert result.engine.fallback_backend is None

    def test_noop_spec_stays_on_plain_path(self, fault_free_outputs):
        # A parsed spec with all-zero rates must not arm the fault plane.
        result = _engine("serial", faults=FaultSpec(seed=9)).run(RECORDS)
        assert result.outputs == fault_free_outputs
        assert result.engine.task_retries == 0
