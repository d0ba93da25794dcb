"""Execution tests for the fault plane: injection, retry, recovery.

The contract under test is the tentpole guarantee: with a fixed seed and
pinned task geometry, a run under injected faults produces outputs
byte-identical to a fault-free run on every backend — including the
process backend surviving real worker deaths via pool rebuild and
in-flight task replay.

Reduce functions are module-level so they survive pickling on the
``processes`` backend.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.core.instance import A2AInstance
from repro.core.selector import solve_a2a
from repro.dataset import Dataset, as_dataset
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
from repro.obs.trace import Tracer
from repro.service.service import collect_reduce
from shuffle_heavy import fanout_plan, sum_reduce
from word_count import word_engine

#: Pinned geometry: identical task decomposition on every backend, so the
#: seeded injector's decisions hit the same (phase, task, attempt) cells.
#: Reduce tasks are the only tasks a run dispatches, so the job is split
#: into enough of them (8 of its 10 reducers' partitions) for every
#: spec below to fire.
GEOMETRY = dict(num_reduce_tasks=8)

#: Fast deterministic policy for tests (backoff in the low milliseconds).
POLICY = RetryPolicy(max_attempts=6, backoff_base=0.001, backoff_max=0.01)

#: The chaos run: the shuffle-heavy workload (64 reduce tasks under its
#: pinned geometry) with crashes and worker kills.
SHUFFLE_RECORDS = 4000
SHUFFLE_GEOMETRY = dict(num_reduce_tasks=64)
CHAOS_SPEC = "crash=0.2,kill=0.05,seed=7"
CHAOS_ATTEMPTS = 6

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


def slow_reduce(key, values):
    time.sleep(0.05)
    yield key, len(values)


def reduce_dying_in_workers(key, values):
    """Kill the worker process that runs it; harmless in the parent."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    yield key, len(values)


def schema_reduce(key, values):
    yield key, len(values)


def angry_reduce(key, values):
    raise ValueError("user bug, not a fault")
    yield  # pragma: no cover


def _engine(backend, *, reduce_fn=None, source=None, **settings):
    """The word-count job on *backend* under the pinned geometry, with any
    further execution *settings* in its config."""
    return word_engine(
        RECORDS,
        source=source,
        reduce_fn=reduce_fn,
        config=ExecutionConfig(
            backend=backend, num_workers=2, **GEOMETRY, **settings
        ),
    )


@pytest.fixture(scope="module")
def fault_free_outputs():
    return _engine("serial").run().outputs


class TestCrossBackendIdentity:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_crash_injection_is_invisible_in_outputs(
        self, backend, fault_free_outputs
    ):
        result = _engine(
            backend, retry=POLICY, faults="crash=0.3,seed=11"
        ).run()
        assert result.outputs == fault_free_outputs
        assert result.engine.task_retries >= 1

    def test_retry_counts_identical_across_backends(self):
        # Determinism is stronger than identical outputs: every backend
        # must see the *same* injected failure scenario.
        retries = {
            backend: _engine(
                backend, retry=POLICY, faults="crash=0.3,seed=11"
            )
            .run()
            .engine.task_retries
            for backend in sorted(BACKENDS)
        }
        assert len(set(retries.values())) == 1, retries

    def test_kill_degrades_to_crash_off_process_backends(
        self, fault_free_outputs
    ):
        result = _engine(
            "serial", retry=POLICY, faults="kill=0.3,seed=5"
        ).run()
        assert result.outputs == fault_free_outputs
        assert result.engine.task_retries >= 1
        assert result.engine.pool_rebuilds == 0


class TestShuffleHeavyChaos:
    """Crashes and worker kills on a realistic task count: every backend
    recovers with identical outputs and a bounded number of retries."""

    @pytest.fixture(scope="class")
    def fault_free(self):
        return ExecutionEngine(
            plan=fanout_plan(range(SHUFFLE_RECORDS)),
            reduce_fn=sum_reduce,
            config=ExecutionConfig(**SHUFFLE_GEOMETRY),
        ).run().outputs

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_outputs_identical_and_retries_bounded(self, backend, fault_free):
        result = ExecutionEngine(
            plan=fanout_plan(range(SHUFFLE_RECORDS)),
            reduce_fn=sum_reduce,
            config=ExecutionConfig(
                backend=backend,
                num_workers=2,
                retry=RetryPolicy(max_attempts=CHAOS_ATTEMPTS),
                faults=CHAOS_SPEC,
                **SHUFFLE_GEOMETRY,
            ),
        ).run()
        assert result.outputs == fault_free
        tasks = result.engine.num_reduce_tasks
        assert tasks == 64
        # At least one injected fault was recovered, and no task used
        # more than its max_attempts - 1 retries.
        assert 1 <= result.engine.task_retries <= tasks * (CHAOS_ATTEMPTS - 1)


class TestSchemaSpillChaos:
    """Crashes and worker kills on a schema job under a memory budget: the
    parent's routed shuffle spills, the reduce tasks recover with the
    fault-free run's outputs and job metrics, and the run leaves no run
    file or worker."""

    def test_kills_under_spill_match_the_fault_free_serial_run(
        self, tmp_path
    ):
        instance = A2AInstance([3, 5, 2, 7, 4, 6, 1, 8, 2, 5] * 4, q=24)
        schema = solve_a2a(instance)
        records = [f"rec-{i}" for i in range(instance.m)]
        # 48 of the schema's 105 reducers' partitions: enough reduce
        # tasks for the chaos spec to crash some and kill one.
        geometry = dict(num_reduce_tasks=48, memory_budget=8)
        reference = execute_schema(
            schema, records, collect_reduce, config=ExecutionConfig(**geometry)
        )
        spill_base = tmp_path / "spills"
        before = set(multiprocessing.active_children())
        chaotic = execute_schema(
            schema,
            records,
            collect_reduce,
            config=ExecutionConfig(
                backend="processes",
                num_workers=2,
                spill_dir=str(spill_base),
                retry=RetryPolicy(max_attempts=CHAOS_ATTEMPTS),
                faults=CHAOS_SPEC,
                **geometry,
            ),
        )
        assert chaotic.outputs == reference.outputs
        assert chaotic.metrics == reference.metrics
        assert chaotic.metrics.spill_runs > 0
        assert chaotic.engine.task_retries > 0
        assert list(spill_base.iterdir()) == []
        assert set(multiprocessing.active_children()) <= before


class TestWorkerDeathRecovery:
    def test_broken_pool_is_rebuilt_and_lost_tasks_replayed(
        self, fault_free_outputs
    ):
        backend = ProcessBackend(max_workers=2)
        with backend:
            result = _engine(
                backend, retry=POLICY, faults="kill=0.4,seed=3"
            ).run()
            assert result.outputs == fault_free_outputs
            assert result.engine.pool_rebuilds >= 1
            assert backend.pool_rebuilds >= 1
            # The healed persistent pool keeps serving plain runs.
            assert _engine(backend).run().outputs == (
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
                _engine(backend, reduce_fn=reduce_dying_in_workers).run()
            assert backend.pool_rebuilds == 1
            assert _engine(backend).run().outputs == (
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
                ).run()
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
            ).run()
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, InjectedFaultError)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
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
            ).run()
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
        ).run()
        assert result.outputs == fault_free_outputs
        assert result.engine.task_retries >= 1


class TestTimeoutsAndDeadlines:
    def test_task_timeout_abandons_and_exhausts(self):
        # Every attempt is delayed past the timeout, so the task is
        # abandoned max_attempts times and retries are exhausted with the
        # timeout as the underlying error.
        with pytest.raises(TaskRetryExhaustedError) as excinfo:
            _engine(
                "processes",
                retry=RetryPolicy(
                    max_attempts=2, backoff_base=0.0, jitter=0.0
                ),
                faults="delay=1.0:0.3,seed=1",
                task_timeout=0.05,
            ).run()
        assert isinstance(excinfo.value.last_error, TaskTimeoutError)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_deadline_bounds_the_run(self, backend):
        with pytest.raises(DeadlineExceededError):
            _engine(
                backend, reduce_fn=slow_reduce, deadline=0.01
            ).run()

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_deadline_bounds_routing_a_slow_source(self, backend):
        # The parent routes the records itself: a slow streaming source
        # must stop at the deadline, not after it was read to the end.
        pulled = []

        def slow_records():
            for record in RECORDS * 50:
                pulled.append(record)
                time.sleep(0.001)
                yield record

        with pytest.raises(DeadlineExceededError, match="map phase"):
            word_engine(
                RECORDS * 50,
                source=Dataset.from_factory(slow_records),
                config=ExecutionConfig(backend=backend, deadline=0.05),
            ).run()
        assert len(pulled) < len(RECORDS) * 50

    def test_deadline_not_cured_by_retry(self):
        # The policy would retry timeouts, but a blown deadline is final.
        with pytest.raises(DeadlineExceededError):
            _engine(
                "serial",
                reduce_fn=slow_reduce,
                retry=POLICY,
                deadline=0.01,
            ).run()


class TestDeadlineDuringRetry:
    """A deadline that expires while a failed task waits to be replayed
    ends the run at the deadline, not after the backoff, and the run
    leaves no pool process, thread or spill directory behind."""

    #: Every retry would wait a minute; the deadline falls in the wait.
    SLOW_RETRY = RetryPolicy(
        max_attempts=6, backoff_base=60.0, backoff_max=60.0, jitter=0.0
    )
    DEADLINE = 1.5
    #: How long after the deadline the run may take to raise.
    GRACE = 2.0

    def _run_past_deadline(self, spill_dir, **settings):
        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        tracer = Tracer()
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            word_engine(
                RECORDS,
                tracer=tracer,
                config=ExecutionConfig(
                    retry=self.SLOW_RETRY,
                    deadline=self.DEADLINE,
                    memory_budget=4,
                    spill_dir=str(spill_dir),
                    **settings,
                ),
            ).run()
        elapsed = time.monotonic() - started
        assert self.DEADLINE <= elapsed < self.DEADLINE + self.GRACE
        # A task failed and was scheduled for replay after the full
        # backoff before the deadline expired.
        retries = [span for span in tracer.spans() if span.name == "retry"]
        assert retries
        assert all(span.attrs["backoff_s"] == 60.0 for span in retries)
        assert os.listdir(spill_dir) == []
        # Pool workers and executor threads wind down after the pool's
        # shutdown; allow them a moment.
        settle = time.monotonic() + 5.0
        while time.monotonic() < settle and (
            set(multiprocessing.active_children()) - children
            or set(threading.enumerate()) - threads
        ):
            time.sleep(0.05)
        assert set(multiprocessing.active_children()) - children == set()
        assert set(threading.enumerate()) - threads == set()
        return retries

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_deadline_expires_during_backoff(self, backend, tmp_path):
        retries = self._run_past_deadline(
            tmp_path,
            backend=backend,
            num_workers=2,
            faults="crash=1.0,seed=1",
            **GEOMETRY,
        )
        assert {span.attrs["error"] for span in retries} == {
            "InjectedFaultError"
        }

    def test_deadline_expires_between_worker_death_and_replay(self, tmp_path):
        # Two reduce tasks on two workers: a worker death breaks the pool
        # under both, the pool is rebuilt, and both lost tasks wait out
        # the backoff before their replay.
        retries = self._run_past_deadline(
            tmp_path,
            backend="processes",
            num_workers=2,
            num_reduce_tasks=2,
            faults="kill=1.0,seed=1",
        )
        assert {span.attrs["error"] for span in retries} == {"WorkerLostError"}


class TestFallbackChain:
    def test_pool_construction_failure_falls_back(
        self, monkeypatch, fault_free_outputs
    ):
        def broken_pool(self):
            raise OSError("no more processes")

        monkeypatch.setattr(ProcessBackend, "_make_pool", broken_pool)
        result = _engine("processes", fallback=True).run()
        assert result.outputs == fault_free_outputs
        assert result.engine.backend == "serial"
        assert result.engine.fallback_backend == "serial"

    def test_worker_deaths_replay_the_run_on_serial(self):
        # Workers die on every task, so the processes run is lost; the
        # chain replays it on serial, where the reduce is harmless, and
        # the replay equals a plain serial run.
        reference = _engine("serial", reduce_fn=reduce_dying_in_workers).run()
        result = _engine(
            "processes", reduce_fn=reduce_dying_in_workers, fallback=True
        ).run()
        assert result.outputs == reference.outputs
        assert result.metrics == reference.metrics
        assert result.engine.fallback_backend == "serial"

    def test_single_use_source_is_rejected_before_any_task(self):
        # A fallback replays the run, which a bare generator cannot feed:
        # fail up front instead of running and then re-iterating it.
        pulled = []

        def records():
            for record in RECORDS:
                pulled.append(record)
                yield record

        with pytest.raises(InvalidInstanceError, match="from_factory"):
            _engine(
                "processes", fallback=True, source=as_dataset(records())
            ).run()
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
            _engine("processes").run()


class TestFaultPlaneOffIsPlainPath:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_no_knobs_no_counters(self, backend, fault_free_outputs):
        result = _engine(backend).run()
        assert result.outputs == fault_free_outputs
        assert result.engine.task_retries == 0
        assert result.engine.pool_rebuilds == 0
        assert result.engine.fallback_backend is None

    def test_noop_spec_stays_on_plain_path(self, fault_free_outputs):
        # A parsed spec with all-zero rates must not arm the fault plane.
        result = _engine("serial", faults=FaultSpec(seed=9)).run()
        assert result.outputs == fault_free_outputs
        assert result.engine.task_retries == 0
