"""The execution engine: schema-routed shuffle and parallel reduce over
pluggable backends.

Where :class:`repro.mapreduce.job.MapReduceJob` *simulates* a job to define
the paper's metrics, the engine *executes* one as physical tasks.  Every
job is a :class:`~repro.engine.routing.SchemaPlan`: the mapping schema (or
an app's explicit member lists) fixes which inputs each reducer receives
before the run, so the mapper computes nothing and the shuffle is
*routed*:

* The *map* phase runs in the parent: it reads the records once and
  appends each to the table of every reduce partition holding one of its
  reducers — once per partition, not once per reducer — keyed by input.
  It sums the job's analytical pair count and communication from the
  plan's routes as it goes.  The number of reduce partitions is fixed
  before the run (reducer ``r`` lives in partition ``r % partitions``),
  exactly like a real MapReduce deployment.
* The parent's "shuffle" pairs each partition's records (spill runs,
  then its in-memory table) with the partition's slice of the plan's
  member lists (``members[p::partitions]``, empty reducers kept), which
  ship together as that partition's reduce task.
* A *reduce task* reads its partition's records into one table, rebuilds
  every reducer's value list from its members (in record order, so
  value order matches the simulator), computes each reducer's load, and
  reduces — inside the parallel task, not on the parent's critical
  path.  Its results are aligned to its slice: one flat output list with
  a per-reducer output count, and one load per reducer.
* The parent's *post-pass* merges the tasks' loads, enforces the
  capacity exactly like the simulator, and walks the plan's reducers
  once, in reducer order, taking reducer ``r``'s outputs from the flat
  list of partition ``r % partitions`` (slot ``r // partitions`` holds
  their count).  It builds no container per reducer, so its cost (and
  the heap its garbage collector sweeps) follows the data, not the
  schema's reducer count.

The job metrics still count one pair per (input, reducer) membership;
``EngineMetrics.pairs_shipped`` counts what moves.  Reduce tasks are the
only tasks a backend runs, so they are also the only tasks the fault
plane retries or injects faults into.

Pooled backends start their workers before the map phase, so phase
timings exclude that startup.  Every backend is semantically identical
to the simulator — same outputs in the same order, same
:class:`~repro.mapreduce.metrics.JobMetrics` — which is what the
cross-validation in :mod:`repro.engine.crossval` checks.

:func:`execute_schema` is the schema-driven entry point: it takes a solved
:class:`~repro.core.schema.A2ASchema`, :class:`~repro.core.schema.X2YSchema`
or :class:`~repro.core.multiway.MultiwaySchema` plus per-input records and
runs the compiled plan.  Apps whose reducers are not one solved schema
(composite joins, baselines) build their plan with
:meth:`~repro.engine.routing.SchemaPlan.from_members` and run
:class:`ExecutionEngine` directly.

Two knobs make the engine *out-of-core*: records may arrive as a streaming
:class:`~repro.dataset.Dataset` (read lazily, never materialized in the
parent), and a ``memory_budget`` bounds the routed pairs the parent
buffers before it flushes them as per-partition runs to disk
(:mod:`repro.engine.spill`).  A reduce task reads its runs into a record
table that holds each input of its partition once, plus one reducer's
value list.  Outputs and strict-mode exceptions are identical to the
in-memory path; only the spill counters in the job metrics differ.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from typing import Any, Hashable, Sequence

from repro.core.multiway import MultiwaySchema
from repro.core.schema import A2ASchema, X2YSchema
from repro.dataset import Dataset, as_dataset
from repro.engine.backends import Backend, SerialBackend, get_backend
from repro.engine.config import ExecutionConfig
from repro.engine.metrics import EngineMetrics, PhaseTimings
from repro.engine.routing import MemberLists, SchemaPlan, build_schema_plan
from repro.engine.spill import (
    MapSpill,
    make_spill_dir,
    record_table,
    spill_buckets,
)
from repro.exceptions import (
    CapacityExceededError,
    InvalidInstanceError,
    ReproError,
    TaskRetryExhaustedError,
    WorkerLostError,
)
from repro.faults import (
    FaultInjector,
    RetryPolicy,
    as_fault_spec,
    check_deadline,
)
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.types import ReduceFn
from repro.obs.profiler import ProfileCapture, phase_span
from repro.obs.trace import Tracer, as_tracer, worker_span

#: Target number of tasks per pool worker; enough slack for load balancing
#: without drowning the run in task overhead.
_TASKS_PER_WORKER = 4

#: Graceful-degradation order: when ``fallback=True`` and a named backend
#: cannot run (pool construction fails, or workers keep dying past the
#: retry budget), the run is replayed on the next backend in this chain.
_FALLBACK_CHAIN = ("processes", "serial")


def _should_fall_back(exc: BaseException) -> bool:
    """Whether a failed run is worth replaying on a weaker backend.

    Only *backend* failures qualify: the pool's workers keep dying
    (directly, or as the last error of an exhausted retry budget) or the
    pool cannot be built at all (``OSError`` — resource limits, spawn
    failures).  A blown deadline, a model error, or a user exception
    would fail identically on any backend, so those propagate.
    """
    if isinstance(exc, WorkerLostError):
        return True
    if isinstance(exc, TaskRetryExhaustedError):
        return isinstance(exc.last_error, WorkerLostError)
    if isinstance(exc, ReproError):
        # Everything else the library raises (deadlines, per-task
        # timeouts, injected faults, model errors) fails the same way on
        # any backend — several of these inherit OSError through
        # TimeoutError/ConnectionError, so this check must come first.
        return False
    return isinstance(exc, OSError)


@dataclass(frozen=True)
class EngineResult:
    """Outputs plus metrics of one engine run.

    ``metrics`` carries the paper's analytical quantities (identical to the
    simulator's on the same inputs); ``engine`` carries the physical
    execution facts (phase timings, task counts, backend).
    """

    outputs: list
    metrics: JobMetrics
    engine: EngineMetrics


@dataclass
class TaskResult:
    """What one reduce task sends home to the parent.

    Attributes:
        outputs: ``(flat outputs, per-reducer output counts)``, the
            counts aligned to the task's members slice, or ``None`` when
            strict capacity discarded them.
        counters: named task counters (``keys``); they label the task's
            worker span.
        loads: per-reducer loads, aligned to the members slice (0 for an
            empty reducer).
        span: the worker span, set when tracing is on; a profiling
            tracer's tasks also put their ``cProfile`` table on it
            (``span["functions"]``).
    """

    outputs: Any
    counters: dict[str, float]
    loads: list[int] = field(default_factory=list)
    span: dict[str, Any] | None = None


def _run_routed_reduce_task(
    payload: tuple[list[Any], tuple[int, int, MemberLists]],
    *,
    reduce_fn: ReduceFn,
    sizes: dict[Hashable, int],
    capacity: int | None,
    strict: bool,
) -> TaskResult:
    """One reduce task: rebuild each reducer's values and reduce.

    *payload* is ``(sources, (first, step, members))``: the partition's
    sources, in flush order (paths of run files, then the bucket
    dict the parent still held, all holding records by input key), and
    its slice of the plan's member
    lists from :meth:`SchemaPlan.routes`, whose slot ``k`` is reducer
    ``first + k * step``.  The sources are read into one record table,
    so the task holds each input of its partition once plus the value
    list of the reducer it is reducing.  A reducer's values are its
    members' records in sorted-key order, which is record order (for
    X2Y, ``("x", i)`` sorts before ``("y", j)``), and its load is the sum
    of its members' declared *sizes*.  Empty reducers are not reduced but
    keep their slot.

    The result is reducer-aligned, with no per-reducer container:
    ``loads`` is one int per slot, and ``outputs`` is ``(flat outputs,
    output count per slot)``.  It counts ``keys`` (non-empty reducers).
    Under
    strict capacity, a task whose partition holds an overloaded reducer
    discards its outputs (``outputs=None``) — the parent merges all loads
    and raises for the globally smallest offending reducer, so the
    strict-mode exception is identical to the simulator's.
    """
    sources, (reducer, step, members_of_p) = payload
    record_of = record_table(sources).__getitem__
    size_of = sizes.__getitem__
    loads: list[int] = []
    counts: list[int] = []
    outputs: list[Any] = []
    keys = 0
    overloaded = False
    for members in members_of_p:
        load = count = 0
        if members:
            keys += 1
            load = sum(map(size_of, members))
            if capacity is not None and load > capacity:
                overloaded = True
            if not (strict and overloaded):
                before = len(outputs)
                values = list(map(record_of, sorted(members)))
                outputs.extend(reduce_fn(reducer, values))
                count = len(outputs) - before
        loads.append(load)
        counts.append(count)
        reducer += step
    return TaskResult(
        outputs=None if strict and overloaded else (outputs, counts),
        counters={"keys": keys},
        loads=loads,
    )


def _instrumented_task(
    payload: Any,
    *,
    inner: Any,
    name: str,
    trace_ctx: tuple[str, str | None],
    profile: bool,
) -> TaskResult:
    """Run one task under a worker span (and ``cProfile`` when *profile*).

    Installed around the reduce task partial *only when tracing is on*.
    ``trace_ctx`` is the pickled ``(trace id, parent span id)`` from
    :meth:`Tracer.worker_context`; the span (labelled with the task's
    counters, and carrying the task's function table when profiled)
    travels home on the :class:`TaskResult`, and the parent folds it in
    with :meth:`Tracer.add_worker_spans`.
    """
    with ProfileCapture(enabled=profile) as capture:
        started = time.perf_counter()
        result = inner(payload)
        duration = time.perf_counter() - started
    result.span = worker_span(
        trace_ctx, name, started, duration, **result.counters
    )
    if profile:
        result.span["functions"] = capture.stats
    return result


@dataclass
class ExecutionEngine:
    """Runs a :class:`~repro.engine.routing.SchemaPlan` as parallel tasks
    on a pluggable backend.

    The parent routes each record once to every reduce partition holding
    one of its reducers; each reduce task receives its partition's slice
    of the plan's member lists with its sources, rebuilds every reducer's
    values from them, and returns results aligned to that slice.

    Attributes:
        plan: the job: wrapped records, declared sizes, every reducer's
            members and the capacity ``q``
            (:func:`~repro.engine.routing.build_schema_plan` or
            :meth:`~repro.engine.routing.SchemaPlan.from_members`).
        reduce_fn: (reducer index, values) -> iterable of outputs; must be
            picklable for the ``processes`` backend (module-level
            function or a :func:`functools.partial` over one).
        strict_capacity: raise on a reducer whose load exceeds the plan's
            capacity (True) or record it as a violation.
        tracer: optional :class:`~repro.obs.trace.Tracer`; when given,
            the run emits ``map``/``shuffle``/``reduce``/``post`` phase
            spans plus per-reduce-task worker spans (propagated through
            the pickling path on pooled backends) and per-flush ``spill``
            spans under ``map``.  ``None`` (the default) disables tracing
            at zero cost.  A profiling tracer (``Tracer(profile=True)``)
            additionally records each phase's CPU seconds and RSS on its
            span, and deterministic ``cProfile`` function tables —
            captured inside worker tasks for reduce (they ride home on
            the worker spans) and parent-side for map/shuffle/post;
            :func:`~repro.obs.profiler.profile_export` turns the spans
            into the profile export.
        config: how the job runs — backend, workers, partitions, spill
            and the fault plane, all in one validated
            :class:`~repro.engine.config.ExecutionConfig` (default: the
            serial backend with every fault-plane setting off).  Any
            fault-plane setting hands :meth:`Backend.run_tasks` a retry
            policy; with all of them off the engine passes
            ``policy=None`` and no injector, so failures propagate
            unchanged.
    """

    plan: SchemaPlan
    reduce_fn: ReduceFn
    strict_capacity: bool = True
    tracer: Tracer | None = None
    config: ExecutionConfig = field(default_factory=ExecutionConfig)

    def run(self) -> EngineResult:
        """Execute the plan end-to-end and return outputs plus metrics.

        The plan's records may be a :class:`~repro.dataset.Dataset`;
        a non-materialized one is read lazily, record by record, as
        the parent routes it, so with a memory budget the full input is never
        held in the parent at once.  The run deadline starts counting
        here.
        """
        deadline = self.config.deadline
        deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        dataset = as_dataset(self.plan.records)
        chain = self._backend_chain()
        if len(chain) > 1 and dataset.is_single_use:
            raise InvalidInstanceError(
                "fallback=True may replay the run on another backend, but "
                "the records are a single-use iterator; pass a list or "
                "build the source with Dataset.from_factory"
            )
        last_exc: BaseException | None = None
        for position, backend_spec in enumerate(chain):
            if position:
                as_tracer(self.tracer).instant(
                    "fallback",
                    category="faults",
                    from_backend=str(chain[0]),
                    to_backend=str(backend_spec),
                    error=type(last_exc).__name__,
                )
            try:
                return self._run_on(
                    backend_spec,
                    dataset,
                    deadline_at,
                    fallback_from=chain[0] if position else None,
                )
            except BaseException as exc:  # noqa: BLE001 - reraised below
                if position + 1 >= len(chain) or not _should_fall_back(exc):
                    raise
                last_exc = exc
        raise last_exc  # pragma: no cover - loop always returns or raises

    def _backend_chain(self) -> list[str | Backend]:
        """The backends this run may try, strongest first.

        A single entry unless ``config.fallback`` is on; live
        :class:`Backend` instances never fall back (their pool lifecycle
        belongs to the caller).
        """
        backend = self.config.backend
        if not self.config.fallback or backend not in _FALLBACK_CHAIN:
            return [backend]
        start = _FALLBACK_CHAIN.index(backend)
        return list(_FALLBACK_CHAIN[start:])

    def _run_on(
        self,
        backend_spec: str | Backend,
        dataset: Dataset,
        deadline_at: float | None,
        fallback_from: str | Backend | None = None,
    ) -> EngineResult:
        """One attempt of the whole run on one backend."""
        config = self.config
        backend = get_backend(backend_spec, max_workers=config.num_workers)
        if isinstance(backend_spec, Backend) and not backend.is_open:
            # A pre-built backend is caller-owned: open its pool
            # persistently so consecutive runs on the same instance reuse
            # one pool instead of spawning (and tearing down) a pool per
            # run.  The caller releases it with Backend.close().  A pool
            # the caller already opened (open() or an enclosing context)
            # keeps the caller's lifecycle untouched.
            backend.open()
        num_partitions = config.num_reduce_tasks or self._default_partitions(
            backend
        )
        run_spill_dir = (
            make_spill_dir(config.spill_dir)
            if config.memory_budget is not None
            else None
        )
        try:
            return self._run_phases(
                backend,
                dataset,
                num_partitions,
                run_spill_dir,
                deadline_at,
                fallback_from,
            )
        finally:
            if run_spill_dir is not None:
                shutil.rmtree(run_spill_dir, ignore_errors=True)

    def _fault_plane(
        self, deadline_at: float | None
    ) -> tuple[RetryPolicy, FaultInjector | None] | None:
        """The run's ``(policy, injector)``, or ``None`` when every
        fault-plane setting is off (failures then propagate unchanged)."""
        config = self.config
        spec = as_fault_spec(config.faults)
        injector = (
            FaultInjector(spec) if spec is not None and spec.enabled else None
        )
        if not (
            config.retry is not None
            or injector is not None
            or config.task_timeout is not None
            or deadline_at is not None
        ):
            return None
        return config.retry or RetryPolicy(), injector

    def _run_phases(
        self,
        backend: Backend,
        dataset: Dataset,
        num_partitions: int,
        run_spill_dir: str | None,
        deadline_at: float | None = None,
        fallback_from: str | Backend | None = None,
    ) -> EngineResult:
        """The three phases plus the post-pass (the spill dir is owned by
        :meth:`_run_on`)."""
        tracer = as_tracer(self.tracer)
        config = self.config
        policy, injector = self._fault_plane(deadline_at) or (None, None)
        rebuilds_before = backend.pool_rebuilds
        retries = 0

        def on_retry(
            phase: str,
            index: int,
            attempt: int,
            exc: BaseException,
            delay: float,
        ) -> None:
            nonlocal retries
            retries += 1
            tracer.instant(
                "retry",
                category="faults",
                phase=phase,
                task=index,
                attempt=attempt,
                error=type(exc).__name__,
                backoff_s=round(delay, 4),
            )

        with backend:
            # --- map phase: the parent routes each record to the reduce
            # partitions its route names, keyed by input; past the memory
            # budget the buffered partitions flush to spill runs.
            with phase_span(
                tracer, "map", capture=True, backend=backend.name
            ) as map_span:
                map_started = time.perf_counter()
                routes, partition_members = self.plan.routes(num_partitions)
                key_of = self.plan.key_of
                budget = config.memory_budget
                buckets: list[dict[Hashable, Any]] = [
                    {} for _ in range(num_partitions)
                ]
                spill = MapSpill(runs=[[] for _ in range(num_partitions)])
                map_inputs = map_pairs = comm = pairs_shipped = 0
                buffered = peak_buffered = 0
                for record in dataset:
                    if deadline_at is not None:
                        # Routing a slow source must not outlive the
                        # deadline that dispatch enforces between tasks.
                        check_deadline(deadline_at, what="map phase")
                    key = key_of(record)
                    parts, fanout, cost = routes[key]
                    map_inputs += 1
                    map_pairs += fanout
                    comm += cost
                    pairs_shipped += len(parts)
                    for p in parts:
                        buckets[p][key] = record
                    if budget is not None:
                        buffered += len(parts)
                        if buffered > peak_buffered:
                            peak_buffered = buffered
                        if buffered >= budget:
                            with tracer.span(
                                "spill", category="engine"
                            ) as spill_span:
                                nbytes, runs = spill_buckets(
                                    buckets, run_spill_dir, spill
                                )
                                spill_span.set("bytes", nbytes)
                                spill_span.set("runs", runs)
                            buckets = [{} for _ in range(num_partitions)]
                            buffered = 0
                map_span.set("records", map_inputs)
                map_seconds = time.perf_counter() - map_started

            # --- shuffle: each partition's sources are its spill runs in
            # flush order, then the bucket still in memory; empty
            # partitions are dropped.
            with phase_span(tracer, "shuffle", capture=True) as shuffle_span:
                shuffle_started = time.perf_counter()
                partitions: list[Any] = []
                for p in range(num_partitions):
                    sources: list[Any] = list(spill.runs[p])
                    if buckets[p]:
                        sources.append(buckets[p])
                    if sources:
                        # The partition's member lists ship once, with
                        # its own task, not in the task partial.
                        partitions.append(
                            (
                                sources,
                                (p, num_partitions, partition_members[p]),
                            )
                        )
                shuffle_span.set("pairs", pairs_shipped)
                shuffle_span.set("partitions", len(partitions))
                shuffle_span.set("spilled_bytes", spill.spilled_bytes)
                shuffle_seconds = time.perf_counter() - shuffle_started

            # --- reduce phase: each task reads its partition's sources
            # into a record table, rebuilds each reducer's value list,
            # accounts its load, and reduces.
            with phase_span(tracer, "reduce") as reduce_span:
                reduce_started = time.perf_counter()
                reduce_task: Any = partial(
                    _run_routed_reduce_task,
                    reduce_fn=self.reduce_fn,
                    sizes=self.plan.sizes,
                    capacity=self.plan.capacity,
                    strict=self.strict_capacity,
                )
                trace_ctx = tracer.worker_context()
                if trace_ctx is not None:
                    reduce_task = partial(
                        _instrumented_task,
                        inner=reduce_task,
                        name="reduce_task",
                        trace_ctx=trace_ctx,
                        profile=tracer.profile,
                    )
                task_results: list[TaskResult] = backend.run_tasks(
                    reduce_task,
                    partitions,
                    policy=policy,
                    injector=injector,
                    phase="reduce",
                    task_timeout=config.task_timeout,
                    deadline_at=deadline_at,
                    on_retry=on_retry,
                )
                if trace_ctx is not None:
                    tracer.add_worker_spans(
                        result.span
                        for result in task_results
                        if result.span is not None
                    )
                reduce_span.set("tasks", len(partitions))
                reduce_run_seconds = time.perf_counter() - reduce_started

        # --- post-pass (pool already released; its shutdown is not timed):
        # merge the tasks' reducer-aligned loads, enforce capacity in
        # global reducer order (identical to the simulator), and
        # reassemble the outputs in that same order, with no container
        # per reducer.
        post_started = time.perf_counter()
        with phase_span(tracer, "post", capture=True) as post_span:
            members = self.plan.members
            loads: dict[int, int] = {}
            part_outputs: list[list[Any]] = [[] for _ in range(num_partitions)]
            part_counts: list[list[int]] = [[] for _ in range(num_partitions)]
            task_loads: list[int] = []
            for (_, (p, step, members_of_p)), result in zip(
                partitions, task_results
            ):
                task_loads.append(sum(result.loads))
                # Slot k is reducer p + k * step; empty reducers have no
                # load entry.
                loads.update(
                    compress(
                        zip(range(p, len(members), step), result.loads),
                        members_of_p,
                    )
                )
                if result.outputs is not None:
                    part_outputs[p], part_counts[p] = result.outputs
            capacity = self.plan.capacity
            max_load = max(loads.values(), default=0)
            violations: list[int] = []
            if capacity is not None and max_load > capacity:
                violations = sorted(
                    key for key, load in loads.items() if load > capacity
                )
                if self.strict_capacity:
                    # A task holding an offender discarded its outputs,
                    # so this raises before the walk would need them.
                    key = violations[0]
                    raise CapacityExceededError(
                        f"reducer for key {key!r} received load "
                        f"{loads[key]} > capacity {capacity}",
                        key=key,
                        load=loads[key],
                        capacity=capacity,
                    )
            # Reducer r's outputs are the next counts[r // partitions]
            # items of partition r % partitions' flat list.
            cursors = [0] * num_partitions
            outputs: list[Any] = []
            for key, held in enumerate(members):
                if not held:
                    continue
                p = key % num_partitions
                count = part_counts[p][key // num_partitions]
                if count:
                    start = cursors[p]
                    cursors[p] = start + count
                    outputs.extend(part_outputs[p][start : start + count])
            post_span.set("outputs", len(outputs))
        reduce_seconds = reduce_run_seconds + (
            time.perf_counter() - post_started
        )

        metrics = JobMetrics(
            map_input_records=map_inputs,
            map_output_pairs=map_pairs,
            communication_cost=comm,
            num_reducers=len(loads),
            reducer_loads=loads,
            max_reducer_load=max_load,
            capacity=capacity,
            capacity_violations=tuple(violations),
            output_records=len(outputs),
            spilled_bytes=spill.spilled_bytes,
            spill_runs=spill.spill_runs,
            peak_buffered_pairs=peak_buffered,
        )
        engine_metrics = EngineMetrics(
            backend=backend.name,
            num_workers=backend.max_workers,
            num_reduce_tasks=len(partitions),
            timings=PhaseTimings(
                map_seconds=map_seconds,
                shuffle_seconds=shuffle_seconds,
                reduce_seconds=reduce_seconds,
            ),
            bytes_moved=comm,
            pairs_shipped=pairs_shipped,
            task_loads=tuple(task_loads),
            capacity=capacity,
            task_retries=retries,
            pool_rebuilds=backend.pool_rebuilds - rebuilds_before,
            fallback_backend=(
                backend.name if fallback_from is not None else None
            ),
        )
        return EngineResult(
            outputs=outputs, metrics=metrics, engine=engine_metrics
        )

    @staticmethod
    def _default_partitions(backend: Backend) -> int:
        """Default reduce partition count: ~4 per worker, 1 when serial."""
        if isinstance(backend, SerialBackend):
            return 1
        return backend.max_workers * _TASKS_PER_WORKER


def execute_schema(
    schema: A2ASchema | X2YSchema | MultiwaySchema,
    records: Sequence[Any] | Dataset | tuple[Sequence[Any], Sequence[Any]],
    reduce_fn: ReduceFn,
    *,
    backend: str | Backend | None = None,
    num_workers: int | None = None,
    strict_capacity: bool = True,
    num_reduce_tasks: int | None = None,
    memory_budget: int | None = None,
    spill_dir: str | None = None,
    config: ExecutionConfig | None = None,
    tracer: Tracer | None = None,
) -> EngineResult:
    """Execute a solved mapping schema over per-input records.

    For an :class:`A2ASchema`, *records* is a sequence (or streaming
    :class:`~repro.dataset.Dataset`) aligned with the instance's inputs
    (record ``i`` has size ``sizes[i]``); reducers receive values wrapped
    as ``(i, record)``.  A :class:`MultiwaySchema` takes its records and
    wraps them the same way.  For an :class:`X2YSchema`, *records* is a
    ``(x_records, y_records)`` pair and values arrive as
    ``(side, i, record)``.  Each reducer receives exactly the records of
    the inputs the schema assigns to it, in record order (for X2Y, the X
    side then the Y side); reduce keys are the schema's reducer indices;
    capacity ``q`` is enforced with the instance's declared sizes, so a
    valid schema can never overflow.

    The schema fixes every reducer's inputs before the run, so the parent
    ships each record once to each reduce partition that holds one of its
    reducers, not once per reducer, and the reduce task rebuilds each
    reducer's value list from the records it received
    (:class:`~repro.engine.routing.SchemaPlan`).  The job metrics stay the
    paper's: ``map_output_pairs`` and ``communication_cost`` count one
    pair per (input, reducer) membership, while
    ``EngineMetrics.pairs_shipped`` counts the routed pairs.

    The execution settings are bundled in *config* (an
    :class:`~repro.engine.config.ExecutionConfig`); without one, the
    individual keywords *backend*, *num_workers*, *num_reduce_tasks*,
    *memory_budget* and *spill_dir* build it, and
    passing any of them together with *config* raises
    :class:`~repro.exceptions.InvalidInstanceError` rather than dropping
    one of the two.  *tracer* rides alongside either form: it is a live
    object, never part of the serializable config, and ``None`` keeps
    tracing (and with it profiling) disabled; ``Tracer(profile=True)``
    also profiles the run.
    """
    settings: dict[str, Any] = {
        name: value
        for name, value in (
            ("backend", backend),
            ("num_workers", num_workers),
            ("num_reduce_tasks", num_reduce_tasks),
            ("memory_budget", memory_budget),
            ("spill_dir", spill_dir),
        )
        if value is not None
    }
    if config is None:
        config = ExecutionConfig(**settings)
    elif settings:
        raise InvalidInstanceError(
            f"execute_schema got config= together with {sorted(settings)}; "
            "put every execution setting in the config"
        )
    return ExecutionEngine(
        plan=build_schema_plan(schema, records),
        reduce_fn=reduce_fn,
        strict_capacity=strict_capacity,
        tracer=tracer,
        config=config,
    ).run()
