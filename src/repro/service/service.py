"""The job service: many concurrent jobs over one shared planner/engine stack.

:class:`JobService` is the multiplexing layer the one-shot pipeline was
missing: callers *submit* declarative :class:`~repro.planner.spec.JobSpec`
jobs and get back a :class:`JobHandle`; a fair priority-FIFO scheduler
(:class:`~repro.service.scheduler.JobScheduler`) runs up to K jobs
concurrently; planning goes through a shared
:class:`~repro.service.plan_cache.PlanCache` (a hit skips method
enumeration entirely); a planned job runs serially in its scheduler slot,
and one that names ``processes`` runs on a **shared, long-lived pool**
owned by the service — one pool per ``(backend, workers)`` shape, opened
persistently and reused by every such job instead of being built and
torn down per run; finished outputs land in a bounded
:class:`~repro.service.results.ResultStore` that evicts read results
before unread ones.

Admission control happens at submit time against the service's
:class:`~repro.planner.environment.Environment` snapshot: a job whose
requested execution config oversubscribes the schedulable cores, or whose
estimated memory footprint cannot fit the machine, is *rejected* (state
``rejected``, reason recorded) rather than queued to fail later.

Lifecycle is fully observable: ``status``/``list`` work in every state,
``cancel`` removes queued jobs exactly and cancels running jobs
cooperatively (their results are discarded), and every transition is an
event on the service's :class:`~repro.service.events.EventLog`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro import planner as planner_pkg
from repro.dataset import Dataset
from repro.engine.backends import BACKENDS, Backend
from repro.engine.config import ExecutionConfig
from repro.engine.engine import ReduceFn
from repro.exceptions import (
    AdmissionError,
    InvalidInstanceError,
    JobCancelledError,
    ReproError,
    ResultEvictedError,
    ResultWaitTimeoutError,
    ServiceClosedError,
    UnknownJobError,
    WorkerLostError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import ResourceSampler, read_cpu_seconds
from repro.obs.store import (
    ObservationRecord,
    ObservationStore,
    current_commit,
    hardware_class,
)
from repro.obs.trace import Span, Tracer, as_tracer
from repro.planner.environment import Environment
from repro.planner.planner import BYTES_PER_SIZE_UNIT, plan_cached
from repro.planner.spec import JobSpec
from repro.service.events import (
    CANCELLED,
    CANCELLING,
    DONE,
    FAILED,
    QUEUED,
    REJECTED,
    RUNNING,
    TERMINAL_STATES,
    EventLog,
    JobEvent,
)
from repro.service.plan_cache import PlanCache
from repro.service.results import JobResult, ResultStore
from repro.service.scheduler import JobScheduler

#: Finished job records kept per result-store slot: a record outlives its
#: result, so an evicted result reads as evicted, not unknown.
TERMINAL_RECORDS_PER_RESULT = 4


def spec_records(
    spec: JobSpec,
) -> list[str] | tuple[list[str], list[str]]:
    """Synthetic per-input records for executing a bare spec.

    The engine routes records by *position* (record ``i`` carries size
    ``sizes[i]`` from the spec), so any placeholder payload exercises the
    full shuffle; these tokens are what ``repro serve``/``repro submit``
    run when a request asks for execution without shipping data.  A2A and
    multiway specs get one token per input, X2Y specs one per side.
    """
    if spec.kind == "x2y":
        return (
            [f"x-{i}" for i in range(len(spec.x_sizes))],
            [f"y-{j}" for j in range(len(spec.y_sizes))],
        )
    return [f"input-{i}" for i in range(len(spec.sizes))]


def _involves_worker_loss(error: BaseException | None) -> bool:
    """Whether *error*'s chain records a worker death.

    Walks ``__cause__``/``__context__`` plus the ``last_error`` carried
    by :class:`~repro.exceptions.TaskRetryExhaustedError`, so a pool
    breakage is recognized whether it propagated raw, wrapped by the
    retry loop, or re-raised by the fallback chain.
    """
    seen: set[int] = set()
    exc = error
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        if isinstance(exc, WorkerLostError):
            return True
        last = getattr(exc, "last_error", None)
        if isinstance(last, BaseException) and _involves_worker_loss(last):
            return True
        exc = exc.__cause__ or exc.__context__
    return False


def collect_reduce(key, values):
    """Reducer for spec-driven jobs: emit each reducer's sorted input ids.

    Values arrive as ``(input_index, record)`` (A2A, multiway) or ``(side,
    input_index, record)`` (X2Y); the payload is stripped so outputs are
    small, deterministic, and comparable across backends.  Module-level,
    hence picklable for the ``processes`` backend.
    """
    yield key, tuple(
        sorted(value[0] if len(value) == 2 else value[:-1] for value in values)
    )


@dataclass(frozen=True)
class JobStatus:
    """An immutable snapshot of one job's lifecycle state.

    ``wall_seconds`` covers the running phase only; ``queue_seconds`` is
    the time between submission and dispatch.  ``cache_hit`` is ``None``
    until the job has planned.
    """

    job_id: str
    state: str
    priority: int
    submitted_at: float
    started_at: float | None = None
    finished_at: float | None = None
    cache_hit: bool | None = None
    executed: bool | None = None
    error: str = ""
    detail: str = ""

    @property
    def queue_seconds(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def wall_seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (used by ``repro serve`` result lines)."""
        return {
            "id": self.job_id,
            "state": self.state,
            "priority": self.priority,
            "cache_hit": self.cache_hit,
            "queue_seconds": self.queue_seconds,
            "wall_seconds": self.wall_seconds,
            "error": self.error or None,
            "detail": self.detail or None,
        }


@dataclass
class _JobRecord:
    """Internal mutable job state (service-lock protected)."""

    job_id: str
    spec: JobSpec
    priority: int
    records: Any
    reduce_fn: ReduceFn | None
    config: ExecutionConfig | None
    strict_capacity: bool
    state: str = QUEUED
    # repro-lint: disable=determinism -- display-only wall time; latency metrics use submitted_mono
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    cache_hit: bool | None = None
    error: str = ""
    detail: str = ""
    exception: BaseException | None = None
    cancel_requested: bool = False
    done: threading.Event = field(default_factory=threading.Event)
    # Observability: the job's own tracer (same sink as the service's,
    # trace id = job id), its root span (open from submit to terminal),
    # and the monotonic submit instant queue wait is measured from.
    tracer: Tracer | None = None
    root_span: Span | Any = None
    submitted_mono: float = field(default_factory=time.perf_counter)

    def snapshot(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            priority=self.priority,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            cache_hit=self.cache_hit,
            executed=(self.records is not None) if self.state == DONE else None,
            error=self.error,
            detail=self.detail,
        )


@dataclass(frozen=True)
class JobHandle:
    """The caller's view of one submitted job.

    The handle keeps the job's record, so :meth:`status` and :meth:`wait`
    still answer after the bounded job table drops it; :meth:`result`
    then raises :class:`~repro.exceptions.ResultEvictedError`.
    """

    job_id: str
    service: "JobService"
    _record: _JobRecord = field(repr=False, compare=False)

    def status(self) -> JobStatus:
        return self.service._status(self._record)

    def wait(self, timeout: float | None = None) -> JobStatus:
        return self.service._wait(self._record, timeout)

    def result(self, timeout: float | None = None) -> JobResult:
        return self.service._result(self._record, timeout)

    def cancel(self) -> bool:
        return self.service.cancel(self.job_id)


class JobService:
    """Submit/status/result/cancel/list over shared planner+engine resources.

    Args:
        slots: concurrent job slots (scheduler worker threads).
        env: environment snapshot used for admission control and
            cache-keyed planning; probed once at construction by default
            so every job in a service session plans against the same
            snapshot (a requirement for plan-cache hits).
        plan_cache_size: retained plans (LRU).
        result_capacity: retained job results (read ones evicted
            first, least recently used first).  The job table keeps
            every unfinished job and the latest
            :data:`TERMINAL_RECORDS_PER_RESULT` × this many finished ones.
        default_priority: priority for submissions that do not set one.
        tracer: optional :class:`~repro.obs.trace.Tracer`.  When given,
            every job runs under its own trace id (the job id, a
            :meth:`~repro.obs.trace.Tracer.child` over the service
            tracer's shared sink) with submit/queue/plan/store spans from
            the service, planner spans from planning, and phase/task
            spans from the engine; lifecycle events become instant spans
            via the :class:`EventLog`.  ``None`` disables tracing at
            zero cost.  A profiling tracer (``Tracer(profile=True)``)
            profiles every executed job's engine phases; feed its spans
            and :attr:`sampler` to
            :func:`~repro.obs.profiler.profile_export` for the profile
            export.
        obs_log: optional NDJSON path; every finished job appends one
            :class:`~repro.obs.store.ObservationRecord` (plan
            fingerprint + measured timings) there via the service's
            :class:`~repro.obs.store.ObservationStore`.

    The service owns one :class:`~repro.obs.profiler.ResourceSampler`
    (:attr:`sampler`), started lazily with the first executed job and
    stopped by :meth:`close`, for the per-job peak-RSS/CPU observation
    fields and the ``health`` snapshot.
    """

    def __init__(
        self,
        slots: int = 2,
        *,
        env: Environment | None = None,
        plan_cache_size: int = 128,
        result_capacity: int = 256,
        default_priority: int = 0,
        tracer: Tracer | None = None,
        obs_log: str | None = None,
    ):
        self.env = env if env is not None else Environment.detect()
        self.plan_cache = PlanCache(plan_cache_size)
        self.results = ResultStore(result_capacity)
        self.tracer = as_tracer(tracer)
        self.metrics = MetricsRegistry()
        self.observations = ObservationStore(path=obs_log)
        self.sampler = ResourceSampler()
        self._started_mono = time.perf_counter()
        self.events = EventLog(tracer=self.tracer)
        self.default_priority = default_priority
        self._records: dict[str, _JobRecord] = {}  # in submission order
        # Ids of finished records still in the table, oldest first.
        self._finished: deque[str] = deque()
        self._finished_limit = TERMINAL_RECORDS_PER_RESULT * result_capacity
        # Reentrant: events are emitted while holding the lock (so the
        # event stream can never reorder against state commits), and
        # subscribers may call back into status()/list() on that thread.
        self._lock = threading.RLock()
        self._counter = 0
        self._closed = False
        self._backends: dict[tuple[str, int | None], Backend] = {}
        self._backend_lock = threading.Lock()
        self.scheduler = JobScheduler(slots)

    # -- submission ------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        *,
        records: Sequence[Any] | Dataset | tuple | None = None,
        reduce_fn: ReduceFn | None = None,
        config: ExecutionConfig | None = None,
        priority: int | None = None,
        job_id: str | None = None,
        strict_capacity: bool = True,
    ) -> JobHandle:
        """Submit one job; returns immediately with a :class:`JobHandle`.

        Without *records* the job is *plan-only*: it produces a plan (via
        the shared plan cache) and no engine run.  With *records* (and a
        *reduce_fn*) the job executes the planned schema, serially unless
        *config* names ``processes`` (the service's shared pool); *config*
        overrides the plan's resolved execution configuration, and is the
        one place a job's recovery policy lives:
        ``ExecutionConfig(retry=..., deadline=...)`` bounds
        per-task replay and the whole run's seconds from dispatch (the
        plan's resolved config never carries either).  Jobs that fail
        admission control are returned in the ``rejected`` state rather
        than raised, so batch submitters observe rejections uniformly via
        status/result.
        """
        if records is not None and reduce_fn is None:
            raise InvalidInstanceError(
                "submitting records requires a reduce_fn"
            )
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if job_id is None:
                self._counter += 1
                job_id = f"job-{self._counter:04d}"
            elif job_id in self._records:
                raise InvalidInstanceError(
                    f"duplicate job id {job_id!r}"
                )
            record = _JobRecord(
                job_id=job_id,
                spec=spec,
                priority=(
                    priority if priority is not None else self.default_priority
                ),
                records=records,
                reduce_fn=reduce_fn,
                config=config,
                strict_capacity=strict_capacity,
            )
            # The job's whole lifetime is one trace (trace id = job id)
            # sharing the service tracer's sink; the root span stays open
            # until the terminal transition closes it.
            record.tracer = self.tracer.child(job_id)
            record.root_span = record.tracer.begin(
                "job", category="service", kind=spec.kind
            )
            self._records[job_id] = record
        self.metrics.counter("jobs.submitted").inc()
        rejection = self._admission_reason(spec, config)
        if rejection is not None:
            self._transition(record, REJECTED, detail=rejection)
            return JobHandle(job_id, self, record)
        self._emit(record, QUEUED)
        self.scheduler.submit(
            job_id,
            lambda: self._execute_job(record),
            priority=record.priority,
        )
        record.tracer.record(
            "submit",
            start=record.submitted_mono,
            duration=time.perf_counter() - record.submitted_mono,
            category="service",
            parent=record.root_span.span_id,
        )
        self._update_scheduler_gauges()
        return JobHandle(job_id, self, record)

    def submit_spec(
        self,
        spec: JobSpec,
        *,
        execute: bool = True,
        priority: int | None = None,
        job_id: str | None = None,
        config: ExecutionConfig | None = None,
    ) -> JobHandle:
        """Submit a bare spec, synthesizing placeholder records.

        This is the submission path of the NDJSON protocol (``repro
        serve`` / ``repro submit``): *execute* runs the planned schema
        over :func:`spec_records` placeholders with the
        :func:`collect_reduce` reducer, for every spec kind.  *config*
        (recovery policy included) passes through to :meth:`submit`.
        """
        if not execute:
            return self.submit(
                spec,
                priority=priority,
                job_id=job_id,
                config=config,
            )
        return self.submit(
            spec,
            records=spec_records(spec),
            reduce_fn=collect_reduce,
            priority=priority,
            job_id=job_id,
            config=config,
        )

    # -- lifecycle queries ----------------------------------------------

    def _record(self, job_id: str) -> _JobRecord:
        with self._lock:
            try:
                return self._records[job_id]
            except KeyError:
                raise UnknownJobError(f"unknown job id {job_id!r}") from None

    def status(self, job_id: str) -> JobStatus:
        """The job's current lifecycle snapshot (works in every state)."""
        return self._status(self._record(job_id))

    def _status(self, record: _JobRecord) -> JobStatus:
        with self._lock:
            return record.snapshot()

    def list(self) -> list[JobStatus]:
        """Every retained job's status, in submission order."""
        with self._lock:
            return [record.snapshot() for record in self._records.values()]

    def wait(self, job_id: str, timeout: float | None = None) -> JobStatus:
        """Block until the job reaches a terminal state (or *timeout*).

        The snapshot is of the record looked up before waiting, so a job
        that finished answers even if later completions drop its record
        from the bounded job table before this returns.
        """
        return self._wait(self._record(job_id), timeout)

    def _wait(self, record: _JobRecord, timeout: float | None) -> JobStatus:
        record.done.wait(timeout)
        return self._status(record)

    def result(self, job_id: str, timeout: float | None = None) -> JobResult:
        """The job's stored result, blocking until it finishes.

        Raises the job's own exception for failed jobs,
        :class:`JobCancelledError` for cancelled ones,
        :class:`AdmissionError` for rejected ones, and
        :class:`~repro.exceptions.ResultEvictedError` when the result was
        evicted from the bounded store.
        """
        return self._result(self._record(job_id), timeout)

    def _result(self, record: _JobRecord, timeout: float | None) -> JobResult:
        job_id = record.job_id
        if not record.done.wait(timeout):
            raise ResultWaitTimeoutError(
                f"job {job_id!r} still {record.state!r} after {timeout}s"
            )
        if record.state == FAILED:
            if record.exception is not None:
                raise record.exception
            raise ReproError(record.error)
        if record.state == CANCELLED:
            raise JobCancelledError(f"job {job_id!r} was cancelled")
        if record.state == REJECTED:
            raise AdmissionError(
                f"job {job_id!r} was rejected: {record.detail}"
            )
        try:
            return self.results.fetch(job_id)
        except KeyError:
            # The record says done, so the result existed: it was evicted
            # by the bounded store (the state that distinguishes eviction
            # from an unknown id lives here, not in the store).
            raise ResultEvictedError(
                f"result of job {job_id!r} was evicted from the result "
                f"store (capacity {self.results.capacity}); the job's "
                "status remains queryable"
            ) from None

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; exact for queued jobs, cooperative for running.

        Returns ``True`` when the job will not deliver a result: a queued
        job is removed from the scheduler and terminally ``cancelled``
        immediately; a running job enters ``cancelling`` — the worker
        discards its output and marks it ``cancelled`` at the next
        checkpoint.  Returns ``False`` for jobs already terminal.
        """
        record = self._record(job_id)
        with self._lock:
            if record.state in TERMINAL_STATES:
                return False
        if self.scheduler.cancel_queued(job_id):
            self._transition(record, CANCELLED, detail="cancelled while queued")
            return True
        with self._lock:
            if record.state in TERMINAL_STATES:
                return False
            record.cancel_requested = True
            already_running = record.state in (RUNNING, CANCELLING)
        if already_running:
            self._transition(record, CANCELLING, detail="cancel requested")
        return True

    # -- service-wide introspection and lifecycle ------------------------

    def stats(self) -> dict[str, Any]:
        """Aggregate service counters (plan cache, results, pools, jobs);
        finished jobs come from the ``jobs.<state>`` counters."""
        with self._lock:  # the lock transitions commit under
            counters = self.metrics.snapshot()["counters"]
            states: dict[str, int] = {}
            for record in self._records.values():
                if record.state not in TERMINAL_STATES:
                    states[record.state] = states.get(record.state, 0) + 1
        for state in sorted(TERMINAL_STATES):
            finished = int(counters.get(f"jobs.{state}", 0))
            if finished:
                states[state] = finished
        with self._backend_lock:
            pools = {
                f"{name}@{workers or 'auto'}": backend.pools_created
                for (name, workers), backend in self._backends.items()
            }
        return {
            "jobs": states,
            "queued": self.scheduler.queued_count,
            "running": self.scheduler.running_count,
            "plan_cache": self.plan_cache.stats(),
            "results": self.results.stats(),
            "backend_pools": pools,
        }

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for every queued/running job to finish."""
        return self.scheduler.drain(timeout)

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Finish (or abandon) outstanding work and release shared pools.

        Jobs that never ran (``drain=False``, an expired drain timeout,
        or a submit racing the close) are moved to ``cancelled`` so
        ``wait()``/``result()`` callers unblock instead of hanging on a
        job no worker will ever pick up.
        """
        with self._lock:
            self._closed = True
        self.scheduler.close(drain=drain, timeout=timeout)
        with self._lock:
            abandoned = [
                record
                for record in self._records.values()
                if record.state not in TERMINAL_STATES
            ]
            for record in abandoned:
                record.cancel_requested = True
        for record in abandoned:
            self._transition(
                record, CANCELLED, detail="service closed before completion"
            )
        with self._backend_lock:
            backends = list(self._backends.values())
            self._backends.clear()
        for backend in backends:
            backend.close()
        # The sampler thread must not outlive the service: chaos-smoke
        # asserts no repro-* threads remain after a serve shutdown.
        self.sampler.stop()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -------------------------------------------------------

    def _admission_reason(
        self, spec: JobSpec, config: ExecutionConfig | None
    ) -> str | None:
        """Why this submission oversubscribes the environment, or ``None``.

        Two rules, both judged against the service's environment probe:
        requesting more workers than the machine's schedulable cores, and
        an estimated resident footprint beyond the measured available
        memory: the input bytes, or the parent's one routing buffer at the
        requested memory budget, each buffered pair a record of mean size
        (``ceil(total_size / num_inputs)`` units, as in
        :func:`~repro.planner.planner.resolve_execution_config`).
        """
        if config is not None and config.num_workers is not None:
            if config.num_workers > self.env.num_workers:
                return (
                    f"requested num_workers={config.num_workers} exceeds "
                    f"the {self.env.num_workers} schedulable core(s)"
                )
        if self.env.memory_bytes is not None:
            input_bytes = spec.total_size * BYTES_PER_SIZE_UNIT
            if input_bytes > self.env.memory_bytes:
                return (
                    f"estimated input footprint {input_bytes} bytes exceeds "
                    f"available memory {self.env.memory_bytes} bytes"
                )
            if config is not None and config.memory_budget is not None:
                mean_size = -(-spec.total_size // spec.num_inputs)
                budget_bytes = (
                    config.memory_budget * BYTES_PER_SIZE_UNIT * mean_size
                )
                if budget_bytes > self.env.memory_bytes:
                    return (
                        f"memory_budget={config.memory_budget} pairs "
                        f"(~{budget_bytes} bytes) exceeds available memory "
                        f"{self.env.memory_bytes} bytes"
                    )
        return None

    def _transition(
        self, record: _JobRecord, state: str, *, detail: str = ""
    ) -> None:
        """Move *record* to *state* (never out of a terminal state).

        The cancel contract is enforced here, under the lock: a ``done``
        commit for a job whose cancellation was requested becomes
        ``cancelled`` and its stored result is discarded, so ``cancel()
        -> True`` can never be followed by a delivered result — even
        when the cancel lands between the worker's last checkpoint and
        its completion.  A worker finishing a job some other path
        already terminalized (cancel, close) likewise has its stored
        result dropped.
        """
        with self._lock:
            if record.state in TERMINAL_STATES:
                if state == DONE:
                    # Late completion after cancel/close: drop the result
                    # the worker stored just before this transition.
                    self.results.discard(record.job_id)
                return
            if state == DONE and record.cancel_requested:
                state = CANCELLED
                detail = detail or "cancelled while running"
                self.results.discard(record.job_id)
            record.state = state
            if detail:
                record.detail = detail
            if state == RUNNING and record.started_at is None:
                # repro-lint: disable=determinism -- display-only wall time; durations use perf_counter
                record.started_at = time.time()
            if state in TERMINAL_STATES:
                # repro-lint: disable=determinism -- display-only wall time; durations use perf_counter
                record.finished_at = time.time()
                self.metrics.counter(f"jobs.{state}").inc()
                self.metrics.histogram("job.latency_seconds").observe(
                    time.perf_counter() - record.submitted_mono
                )
                if state in (DONE, FAILED):
                    # 0/1 outcomes into a bounded-reservoir histogram:
                    # its windowed mean IS the rolling failure rate the
                    # health snapshot reports.
                    self.metrics.histogram("job.failures").observe(
                        1.0 if state == FAILED else 0.0
                    )
            # Emit inside the lock: the commit and its event are atomic,
            # so observers can never see e.g. a 'cancelling' event arrive
            # after the job's terminal event (the lock is reentrant, so
            # subscribers may query the service from the callback).
            self._emit(record, state, detail=detail)
            if state in TERMINAL_STATES:
                # Close the job's root span with its final state; the
                # trace is complete once the lifecycle is.
                if record.tracer is not None and record.root_span is not None:
                    record.root_span.set("state", state)
                    record.tracer.finish(record.root_span)
                record.done.set()
                self._finished.append(record.job_id)
                while len(self._finished) > self._finished_limit:
                    dropped = self._finished.popleft()
                    del self._records[dropped]
                    self.results.discard(dropped)

    def _emit(self, record: _JobRecord, state: str, *, detail: str = "") -> None:
        self.events.emit(
            JobEvent(job_id=record.job_id, state=state, detail=detail)
        )

    def _shared_config(self, config: ExecutionConfig) -> ExecutionConfig:
        """Swap a named pooled backend for the service's shared pool.

        Pools are keyed by ``(backend name, worker count)`` and opened
        persistently on first use; every job with the same shape reuses
        the same pool, so the engine does not pay pool startup per run.
        Serial (no pool) and caller-provided live :class:`Backend`
        instances (the caller owns those) pass through untouched.
        """
        if (
            isinstance(config.backend, Backend)
            or BACKENDS[config.backend].runs_inline
        ):
            return config
        key = (config.backend, config.num_workers)
        with self._backend_lock:
            backend = self._backends.get(key)
            if backend is None:
                backend = BACKENDS[config.backend](
                    max_workers=config.num_workers
                )
                backend.open()
                self._backends[key] = backend
        return replace(config, backend=backend)

    def _evict_backend(self, key: tuple[str, int | None]) -> bool:
        """Drop and close the shared pool entry for *key*, if present.

        Called when a job fails with a worker loss in its error chain:
        the entry is removed under the backend lock (so a concurrent
        :meth:`_shared_config` builds a fresh backend) and the old
        backend closed outside it.  A job currently running on the old
        backend is unaffected beyond losing pool reuse — its next
        ``run_tasks`` dispatch opens a fresh pool, closed when the job's
        run ends.
        """
        with self._backend_lock:
            backend = self._backends.pop(key, None)
        if backend is None:
            return False
        self.metrics.counter("pools.evicted").inc()
        backend.close()
        return True

    def _plan(
        self, spec: JobSpec, *, tracer: Tracer | None = None
    ) -> tuple[Any, str, bool]:
        """Plan via the shared cache; returns ``(plan, fingerprint, hit)``."""
        return plan_cached(
            spec, self.env, cache=self.plan_cache, tracer=tracer
        )

    def _update_scheduler_gauges(self) -> None:
        """Refresh the queue/slot gauges from the scheduler's counters."""
        queued = self.scheduler.queued_count
        running = self.scheduler.running_count
        gauge = self.metrics.gauge
        gauge("scheduler.queue_depth").set(queued)
        gauge("scheduler.running").set(running)
        gauge("scheduler.slot_utilization").set(running / self.scheduler.slots)
        gauge("scheduler.peak_queued").set(self.scheduler.peak_queued)

    def metrics_snapshot(self) -> dict[str, Any]:
        """Point-in-time metrics registry snapshot, gauges refreshed.

        Scheduler gauges and per-pool dispatch counters are re-read at
        snapshot time (they live on the scheduler/backends, not in the
        registry), then the registry's full
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` is returned
        with the plan cache's counter block attached.  This is the
        payload of the ``metrics`` request on ``repro serve``.
        """
        self._update_scheduler_gauges()
        with self._backend_lock:
            for (name, workers), backend in self._backends.items():
                label = f"{name}@{workers or 'auto'}"
                self.metrics.gauge(f"pool.{label}.tasks_dispatched").set(
                    backend.tasks_dispatched
                )
                self.metrics.gauge(f"pool.{label}.rebuilds").set(
                    backend.pool_rebuilds
                )
        snapshot = self.metrics.snapshot()
        snapshot["plan_cache"] = self.plan_cache.stats()
        return snapshot

    def health_snapshot(self) -> dict[str, Any]:
        """Rolling-window service-level health (SLO view of the metrics).

        Where :meth:`metrics_snapshot` dumps everything, this distills
        the numbers an operator pages on: queue-latency p50/p95 and the
        failure rate over the histograms' bounded reservoirs (so both
        are *rolling* windows, not lifetime aggregates), current slot
        utilization and queue depth, pool rebuild totals, and the
        resource sampler's process-wide peak RSS / CPU.  This is the
        payload of the ``{"health": true}`` request on ``repro serve``.
        """
        self._update_scheduler_gauges()
        snapshot = self.metrics.snapshot()
        queue = snapshot["histograms"].get("job.queue_seconds", {})
        outcomes = snapshot["histograms"].get("job.failures", {})
        counters = snapshot["counters"]
        with self._backend_lock:
            pool_rebuilds = sum(
                backend.pool_rebuilds for backend in self._backends.values()
            )
        with self._lock:
            closed = self._closed
        return {
            "status": "closing" if closed else "ok",
            "uptime_seconds": round(
                time.perf_counter() - self._started_mono, 3
            ),
            "slots": self.scheduler.slots,
            "queued": self.scheduler.queued_count,
            "running": self.scheduler.running_count,
            "slot_utilization": snapshot["gauges"].get(
                "scheduler.slot_utilization", 0.0
            ),
            "queue_p50_s": round(queue.get("p50", 0.0), 6),
            "queue_p95_s": round(queue.get("p95", 0.0), 6),
            "window_jobs": outcomes.get("count", 0),
            "failure_rate": round(outcomes.get("mean", 0.0), 4),
            "jobs_done": int(counters.get("jobs.done", 0)),
            "jobs_failed": int(counters.get("jobs.failed", 0)),
            "pool_rebuilds": pool_rebuilds,
            "sampler_running": self.sampler.running,
            "peak_rss_bytes": self.sampler.peak_rss_bytes(),
            "cpu_seconds": round(self.sampler.cpu_seconds(), 3),
        }

    def _execute_job(self, record: _JobRecord) -> None:
        """One job's worker-side pipeline: plan, execute, store, account."""
        if record.cancel_requested:
            self._transition(
                record, CANCELLED, detail="cancelled before dispatch"
            )
            return
        tracer = as_tracer(record.tracer)
        # Queue wait is measured on the monotonic clock from the submit
        # instant and recorded from this (dispatching) thread — the span
        # could not exist while the job sat in the queue.
        queue_seconds = time.perf_counter() - record.submitted_mono
        tracer.record(
            "queue",
            start=record.submitted_mono,
            duration=queue_seconds,
            category="service",
            parent=record.root_span.span_id,
        )
        self.metrics.histogram("job.queue_seconds").observe(queue_seconds)
        self._update_scheduler_gauges()
        self._transition(record, RUNNING)
        # Lazy sampler start: services that only plan never pay for the
        # thread; per-job peak RSS is a window query from the job's start
        # (peak_rss_bytes always takes a fresh reading, so plan-only jobs
        # still report a real figure without the thread).
        if record.records is not None:
            self.sampler.start()
        started = time.perf_counter()
        cpu0 = read_cpu_seconds()
        fingerprint = ""
        config: ExecutionConfig | None = None
        pool_key: tuple[str, int | None] | None = None
        try:
            # Everything below nests under the job's root span: the
            # planner's "plan" span, the engine's phase/task spans, and
            # the final "store" span all parent through this activation.
            with tracer.activate(record.root_span):
                planned, fingerprint, cache_hit = self._plan(
                    record.spec, tracer=tracer
                )
                self.metrics.counter(
                    "plan_cache.hits" if cache_hit else "plan_cache.misses"
                ).inc()
                with self._lock:
                    record.cache_hit = cache_hit
                if record.cancel_requested:
                    self._transition(
                        record, CANCELLED, detail="cancelled during planning"
                    )
                    return
                if record.records is None:
                    result = JobResult(
                        job_id=record.job_id,
                        plan=planned,
                        fingerprint=fingerprint,
                        cache_hit=cache_hit,
                        wall_seconds=time.perf_counter() - started,
                    )
                else:
                    config = record.config or planned.execution
                    if isinstance(config.backend, str):
                        pool_key = (config.backend, config.num_workers)
                    config = self._shared_config(config)
                    engine_result = planner_pkg.run(
                        planned,
                        record.records,
                        record.reduce_fn,
                        strict_capacity=record.strict_capacity,
                        config=config,
                        tracer=tracer,
                    )
                    result = JobResult(
                        job_id=record.job_id,
                        plan=planned,
                        fingerprint=fingerprint,
                        cache_hit=cache_hit,
                        outputs=engine_result.outputs,
                        metrics=engine_result.metrics,
                        engine=engine_result.engine,
                        wall_seconds=time.perf_counter() - started,
                    )
                    self._account_engine_metrics(engine_result)
                if record.cancel_requested:
                    self._transition(
                        record, CANCELLED, detail="cancelled while running"
                    )
                    return
                with tracer.span("store", category="service"):
                    self.results.put(result)
            # Build the observation *before* the terminal transition:
            # ``wait()`` unblocks on DONE, and the store's
            # ``current_commit()`` can shell out to git on first use —
            # doing that work after the transition opens a window where a
            # waiter reads the observation snapshot before the record
            # lands.
            observation = self._observation(
                record,
                fingerprint,
                queue_seconds,
                started,
                cpu0,
                result=result,
            )
            self._transition(
                record,
                DONE,
                detail="plan cache hit" if cache_hit else "",
            )
            with self._lock:
                committed = record.state == DONE
            if committed:
                self.metrics.histogram("job.wall_seconds").observe(
                    result.wall_seconds
                )
                self.observations.record(observation)
        except Exception as error:  # noqa: BLE001 - recorded, not raised
            with self._lock:
                record.exception = error
                record.error = f"{type(error).__name__}: {error}"
            self.metrics.counter(f"jobs.failed.{type(error).__name__}").inc()
            if pool_key is not None and _involves_worker_loss(error):
                # A worker died and the run still failed: the shared pool
                # for this shape may be poisoned (dead workers, broken
                # pipes).  Evict it so the next job with this shape gets a
                # freshly built backend instead of inheriting the damage.
                evicted = self._evict_backend(pool_key)
                if evicted:
                    tracer.instant(
                        "pool_evicted",
                        category="faults",
                        backend=pool_key[0],
                        workers=pool_key[1] or 0,
                        error=type(error).__name__,
                    )
            # As on the success path, measure before the terminal
            # transition so waiters unblocked by FAILED find the record.
            observation = self._observation(
                record,
                fingerprint,
                queue_seconds,
                started,
                cpu0,
                config=config,
                error=error,
            )
            self._transition(record, FAILED, detail=record.error)
            self.observations.record(observation)
        finally:
            self._update_scheduler_gauges()

    def _observation(
        self,
        record: _JobRecord,
        fingerprint: str,
        queue_seconds: float,
        started: float,
        cpu0: float,
        *,
        result: JobResult | None = None,
        config: ExecutionConfig | None = None,
        error: BaseException | None = None,
    ) -> ObservationRecord:
        """A finished job's observation: a done job's from its *result*,
        a failed job's from the *error* and the *config* it ran on.

        Peak RSS is the sampler's reading since *started*; CPU is the
        process-wide delta since *cpu0*.
        """
        backend = config.backend if config is not None else ""
        return ObservationRecord.build(
            job_id=record.job_id,
            fingerprint=fingerprint,
            cache_hit=bool(record.cache_hit),
            wall_seconds=(
                result.wall_seconds
                if result is not None
                else time.perf_counter() - started
            ),
            queue_seconds=queue_seconds,
            metrics=getattr(result, "metrics", None),
            engine=getattr(result, "engine", None),
            backend=(
                backend.name if isinstance(backend, Backend) else backend
            ),
            workers=(
                backend.max_workers
                if isinstance(backend, Backend)
                else getattr(config, "num_workers", None) or 0
            ),
            error=error,
            commit=current_commit(),
            hardware_class=hardware_class(self.env.num_workers),
            peak_rss_bytes=self.sampler.peak_rss_bytes(since=started),
            cpu_seconds=max(0.0, read_cpu_seconds() - cpu0),
        )

    def _account_engine_metrics(self, engine_result: Any) -> None:
        """Fold one engine run's totals into the service metrics."""
        metrics = engine_result.metrics
        timings = engine_result.engine.timings
        counter = self.metrics.counter
        counter("engine.shuffle_pairs").inc(metrics.map_output_pairs)
        counter("engine.spilled_bytes").inc(metrics.spilled_bytes)
        counter("engine.spill_runs").inc(metrics.spill_runs)
        counter("engine.output_records").inc(metrics.output_records)
        engine = engine_result.engine
        if engine.task_retries:
            counter("engine.task_retries").inc(engine.task_retries)
        if engine.pool_rebuilds:
            counter("engine.pool_rebuilds").inc(engine.pool_rebuilds)
        if engine.fallback_backend is not None:
            counter(f"engine.fallbacks.{engine.fallback_backend}").inc()
        histogram = self.metrics.histogram
        histogram("phase.map_seconds").observe(timings.map_seconds)
        histogram("phase.shuffle_seconds").observe(timings.shuffle_seconds)
        histogram("phase.reduce_seconds").observe(timings.reduce_seconds)
