"""The execution engine: parallel map/shuffle/reduce over pluggable backends.

Where :class:`repro.mapreduce.job.MapReduceJob` *simulates* a job to define
the paper's metrics, the engine *executes* one as physical tasks.  Every
job is a :class:`~repro.engine.routing.SchemaPlan`: the mapping schema (or
an app's explicit member lists) fixes which inputs each reducer receives
before the run, so the shuffle is *routed*:

* A *map task* takes a chunk of records and ships each record once to
  each reduce partition holding one of its reducers — not once per
  reducer — bucketed by partition and keyed by input.  It also sums the
  job's analytical pair count and communication from the plan's routes,
  so the parent does no per-record work.  The number of reduce
  partitions is fixed before the map phase (reducer ``r`` lives in
  partition ``r % partitions``), exactly like a real MapReduce
  deployment.
* The parent's "shuffle" is just a transpose: for each partition it
  collects the per-map-task buckets, in task order, and pairs them with
  the partition's slice of the plan's member lists
  (``members[p::partitions]``, empty reducers kept), which ships once,
  with that partition's task.
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
``EngineMetrics.pairs_shipped`` counts what moves.  Where tasks run in
other processes (:attr:`Backend.ships_blocks`), map tasks return each
bucket as one block (:mod:`repro.engine.codec`) that only the reduce task
decodes, so the parent moves opaque ``bytes``; the in-process backends
hand dict buckets over by reference.

Both phases run inside one backend context, so pooled backends pay pool
startup once per run (phase timings exclude that startup).  Every backend
is semantically identical to the simulator — same outputs in the same
order, same :class:`~repro.mapreduce.metrics.JobMetrics` — which is what
the cross-validation in :mod:`repro.engine.crossval` checks.

:func:`execute_schema` is the schema-driven entry point: it takes a solved
:class:`~repro.core.schema.A2ASchema`, :class:`~repro.core.schema.X2YSchema`
or :class:`~repro.core.multiway.MultiwaySchema` plus per-input records and
runs the compiled plan.  Apps whose reducers are not one solved schema
(composite joins, baselines) build their plan with
:meth:`~repro.engine.routing.SchemaPlan.from_members` and run
:class:`ExecutionEngine` directly.

Two knobs make the engine *out-of-core*: records may arrive as a streaming
:class:`~repro.dataset.Dataset` (consumed chunk by chunk, never
materialized in the parent), and a ``memory_budget`` bounds the routed
pairs a map task buffers before spilling sorted runs to disk
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
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.core.multiway import MultiwaySchema
from repro.core.schema import A2ASchema, X2YSchema
from repro.dataset import Dataset, as_dataset, iter_chunks
from repro.engine.backends import Backend, SerialBackend, get_backend
from repro.engine.codec import decode_block_groups, encode_groups
from repro.engine.config import ExecutionConfig
from repro.engine.metrics import EngineMetrics, PhaseTimings
from repro.engine.routing import (
    MemberLists,
    Route,
    SchemaPlan,
    build_schema_plan,
)
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
from repro.faults import FaultInjector, RetryPolicy, as_fault_spec
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.types import ReduceFn
from repro.obs.profiler import ProfileCapture, phase_span
from repro.obs.trace import Tracer, as_tracer, worker_span

#: Records below this count are not worth splitting into more map tasks —
#: per-task dispatch overhead would dominate the mapping work.
_MIN_MAP_CHUNK = 16

#: Target number of tasks per pool worker; enough slack for load balancing
#: without drowning the run in task overhead.
_TASKS_PER_WORKER = 4

#: Map chunk size when the record count is unknown (streaming datasets):
#: large enough to amortize dispatch, small enough to bound the number of
#: records in flight per task.
_STREAM_CHUNK = 1024

#: Graceful-degradation order: when ``fallback=True`` and a named backend
#: cannot run (pool construction fails, or workers keep dying past the
#: retry budget), the run is replayed on the next backend in this chain.
_FALLBACK_CHAIN = ("processes", "threads", "serial")


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
    """What one map or reduce task sends home to the parent.

    Attributes:
        outputs: a map task's partition buckets (dicts, or blocks and
            ``None`` when encoded); a reduce task's ``(flat outputs,
            per-reducer output counts)``, the counts aligned to its
            members slice, or ``None`` when strict capacity discarded
            them.
        counters: named task counters (``records``, ``pairs``, ...) that
            the parent sums; they also label the task's worker span.
        loads: a reduce task's per-reducer loads, aligned to its members
            slice (0 for an empty reducer; empty for map).
        spill: a map task's spill runs (``None`` without a memory budget).
        span: the worker span, set when tracing is on; a profiling
            tracer's tasks also put their ``cProfile`` table on it
            (``span["functions"]``).
    """

    outputs: Any
    counters: dict[str, float]
    loads: list[int] = field(default_factory=list)
    spill: MapSpill | None = None
    span: dict[str, Any] | None = None


def _run_routed_map_task(
    chunk: list[Any],
    *,
    routes: dict[Hashable, Route],
    key_of: Callable[[Any], Hashable],
    num_partitions: int,
    memory_budget: int | None = None,
    spill_dir: str | None = None,
    encode: bool = False,
) -> TaskResult:
    """One map task: ship each record once per reduce partition.

    *routes* is the map side of :meth:`SchemaPlan.routes`: per input key,
    the partitions that hold one of its reducers, its fan-out and its
    communication.  ``outputs[p]`` maps the input key of every record
    routed to partition ``p`` to that record, so a record crosses the
    shuffle once per partition, not once per reducer.  The counters are
    ``records``; ``pairs`` and ``comm``, summed from the routes (what
    per-reducer emission would count, so the job metrics stay
    analytical); ``shipped``, the routed pairs; ``peak_buffered``;
    ``encoded_bytes`` and ``encode_seconds``.  Module-level so
    process-pool workers can unpickle it; the routes are bound via
    :func:`functools.partial` and pickled once per phase.

    A *memory_budget* bounds the routed pairs the task buffers: when it
    is reached, the buckets are flushed to per-partition sorted runs keyed
    by input; whatever remains at the end of the chunk is returned
    in-memory, so unbudgeted runs take this exact code path with zero
    flushes.  Peak tracking is tied to the budget: unbudgeted runs report
    0, so their metrics do not echo the backend's chunking.

    With *encode* (set exactly when the backend ships results across a
    process boundary), each non-empty bucket is returned as one block
    (:mod:`repro.engine.codec`) and empty buckets as ``None``, so the
    parent moves opaque ``bytes``; ``encoded_bytes``/``encode_seconds``
    report that work and are 0 on the in-process backends, whose dict
    buckets are handed over by reference.
    """
    buckets: list[dict[Hashable, Any]] = [{} for _ in range(num_partitions)]
    pair_count = 0
    comm = 0
    record_count = 0
    shipped = 0
    buffered = 0
    peak_buffered = 0
    spill = MapSpill() if memory_budget is not None else None
    for record in chunk:
        record_count += 1
        key = key_of(record)
        parts, fanout, cost = routes[key]
        pair_count += fanout
        comm += cost
        shipped += len(parts)
        for p in parts:
            buckets[p][key] = record
        if spill is not None:
            buffered += len(parts)
            if buffered > peak_buffered:
                peak_buffered = buffered
            if buffered >= memory_budget:
                spill_buckets(buckets, spill_dir, spill)
                buckets = [{} for _ in range(num_partitions)]
                buffered = 0
    outputs: list[Any] = buckets
    encoded_bytes = 0
    encode_seconds = 0.0
    if encode:
        encode_started = time.perf_counter()
        blocks: list[bytes | None] = []
        for bucket in buckets:
            if bucket:
                block = encode_groups(bucket)
                encoded_bytes += len(block)
                blocks.append(block)
            else:
                blocks.append(None)
        outputs = blocks
        encode_seconds = time.perf_counter() - encode_started
    return TaskResult(
        outputs=outputs,
        counters={
            "records": record_count,
            "pairs": pair_count,
            "shipped": shipped,
            "comm": comm,
            "peak_buffered": peak_buffered,
            "encoded_bytes": encoded_bytes,
            "encode_seconds": encode_seconds,
        },
        spill=spill,
    )


def _resolve_sources(
    sources: list[Any],
) -> tuple[list[Any], float]:
    """Decode a reduce task's block sources back into bucket dicts.

    ``bytes`` sources (blocks shipped from map tasks) become dicts in
    place; dict buckets and spill-run paths pass through untouched.
    Returns ``(resolved sources, decode seconds)``.
    """
    if not any(isinstance(source, bytes) for source in sources):
        return sources, 0.0
    decode_started = time.perf_counter()
    resolved = [
        decode_block_groups(source) if isinstance(source, bytes) else source
        for source in sources
    ]
    return resolved, time.perf_counter() - decode_started


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
    sources, in spill order (bucket dicts, blocks — ``bytes``, decoded
    here, in the parallel task — or paths of sorted run files, all
    holding records by input key), and its slice of the plan's member
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
    output count per slot)``.  It counts ``keys`` (non-empty reducers)
    and ``decode_seconds`` (time spent decoding block sources).  Under
    strict capacity, a task whose partition holds an overloaded reducer
    discards its outputs (``outputs=None``) — the parent merges all loads
    and raises for the globally smallest offending reducer, so the
    strict-mode exception is identical to the simulator's.
    """
    sources, (reducer, step, members_of_p) = payload
    sources, decode_seconds = _resolve_sources(sources)
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
        counters={"keys": keys, "decode_seconds": decode_seconds},
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

    Installed around the map/reduce task partials *only when tracing is
    on*.  ``trace_ctx`` is the pickled ``(trace id, parent span id)`` from
    :meth:`Tracer.worker_context`; the span (labelled with the task's
    counters, and carrying the task's function table when profiled)
    travels home on the :class:`TaskResult`, and
    :func:`_merge_task_telemetry` folds it in.
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


def _merge_task_telemetry(results: list[TaskResult], tracer: Tracer) -> None:
    """Fold the worker spans tasks carried home into *tracer*.

    A map task that spilled additionally contributes one ``spill`` child
    span per flush window (its bytes and run files as attributes), so
    disk pressure shows up on the timeline exactly where it occurred.
    """
    spans: list[dict[str, Any]] = []
    for result in results:
        span = result.span
        if span is None:
            continue
        spill = result.spill
        if spill is not None and spill.flush_windows:
            span["args"]["spilled_bytes"] = spill.spilled_bytes
            for start, duration, nbytes, runs in spill.flush_windows:
                tracer.record(
                    "spill",
                    start=start,
                    duration=duration,
                    category="engine",
                    parent=span["id"],
                    trace_id=span["trace"],
                    bytes=nbytes,
                    runs=runs,
                )
        spans.append(span)
    tracer.add_worker_spans(spans)


def _total(results: list[TaskResult], counter: str) -> Any:
    """Sum one named counter over task results, in task order."""
    return sum(result.counters[counter] for result in results)


def _chunk(records: list[Any], chunk_size: int) -> list[list[Any]]:
    """Split records into consecutive chunks of at most *chunk_size*."""
    return [
        records[start : start + chunk_size]
        for start in range(0, len(records), chunk_size)
    ]


@dataclass
class ExecutionEngine:
    """Runs a :class:`~repro.engine.routing.SchemaPlan` as parallel tasks
    on a pluggable backend.

    Map tasks ship each record once to every reduce partition holding one
    of its reducers; each reduce task receives its partition's slice of
    the plan's member lists with its sources, rebuilds every reducer's
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
            spans plus per-task worker spans (propagated through the
            pickling path on pooled backends) and per-flush ``spill``
            spans.  ``None`` (the default) disables tracing at zero cost.
            A profiling tracer (``Tracer(profile=True)``) additionally
            records each phase's CPU seconds and RSS on its span, and
            deterministic ``cProfile`` function tables — captured inside
            worker tasks for map/reduce (they ride home on the worker
            spans) and parent-side for shuffle/post;
            :func:`~repro.obs.profiler.profile_export` turns the spans
            into the profile export.
        config: how the job runs — backend, workers, chunking, spill
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
        non-materialized datasets are consumed chunk by chunk, so the full
        input is never held in the parent at once (pooled backends keep a
        bounded window of chunks in flight, retry or not).  The run
        deadline starts counting here.
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

        def run_phase(
            task: Any, tasks: Iterable[Any], phase: str
        ) -> list[TaskResult]:
            """Dispatch one phase's tasks, instrumented when tracing is on,
            and fold their spans in."""
            trace_ctx = tracer.worker_context()
            if trace_ctx is not None:
                task = partial(
                    _instrumented_task,
                    inner=task,
                    name=f"{phase}_task",
                    trace_ctx=trace_ctx,
                    profile=tracer.profile,
                )
            results = backend.run_tasks(
                task,
                tasks,
                policy=policy,
                injector=injector,
                phase=phase,
                task_timeout=config.task_timeout,
                deadline_at=deadline_at,
                on_retry=on_retry,
            )
            if trace_ctx is not None:
                _merge_task_telemetry(results, tracer)
            return results

        with backend:
            # --- map phase: chunk records into tasks; each task returns its
            # records bucketed by reduce partition and keyed by input, and
            # overflow beyond the memory budget goes to sorted spill runs.
            with phase_span(tracer, "map", backend=backend.name) as map_span:
                map_started = time.perf_counter()
                chunk_size = config.map_chunk_size or self._default_chunk(
                    dataset.length, backend, config.memory_budget
                )
                chunks: Iterable[list[Any]]
                if dataset.is_materialized:
                    materialized = dataset.materialize()
                    chunks = (
                        _chunk(materialized, chunk_size)
                        if materialized
                        else []
                    )
                else:
                    chunks = iter_chunks(dataset, chunk_size)
                routes, partition_members = self.plan.routes(num_partitions)
                map_task = partial(
                    _run_routed_map_task,
                    routes=routes,
                    key_of=self.plan.key_of,
                    num_partitions=num_partitions,
                    memory_budget=config.memory_budget,
                    spill_dir=run_spill_dir,
                    encode=backend.ships_blocks,
                )
                map_results = run_phase(map_task, chunks, "map")
                map_span.set("tasks", len(map_results))
                map_seconds = time.perf_counter() - map_started

            # --- shuffle: a transpose.  Collect each partition's sources
            # across map tasks — spilled runs in flush order, then the
            # task's in-memory leftover (a dict bucket, or an opaque
            # block on block-shipping backends) — and drop empty
            # partitions; no per-record work happens here.
            with phase_span(tracer, "shuffle", capture=True) as shuffle_span:
                shuffle_started = time.perf_counter()
                map_inputs = _total(map_results, "records")
                map_pairs = _total(map_results, "pairs")
                pairs_shipped = _total(map_results, "shipped")
                comm = _total(map_results, "comm")
                peak_buffered = max(
                    (r.counters["peak_buffered"] for r in map_results),
                    default=0,
                )
                spills = [
                    result.spill
                    for result in map_results
                    if result.spill is not None
                ]
                spilled_bytes = sum(spill.spilled_bytes for spill in spills)
                spill_runs = sum(spill.spill_runs for spill in spills)
                encoded_bytes = _total(map_results, "encoded_bytes")
                encode_seconds = _total(map_results, "encode_seconds")
                partitions: list[Any] = []
                for p in range(num_partitions):
                    sources: list[Any] = []
                    for result in map_results:
                        if result.spill is not None:
                            sources.extend(result.spill.partition_runs(p))
                        if result.outputs[p]:
                            sources.append(result.outputs[p])
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
                shuffle_span.set("spilled_bytes", spilled_bytes)
                if encoded_bytes:
                    shuffle_span.set("encoded_bytes", encoded_bytes)
                shuffle_seconds = time.perf_counter() - shuffle_started

            # --- reduce phase: each task reads its partition's sources
            # into a record table, rebuilds each reducer's value list,
            # accounts its load, and reduces.
            with phase_span(tracer, "reduce") as reduce_span:
                reduce_started = time.perf_counter()
                reduce_task = partial(
                    _run_routed_reduce_task,
                    reduce_fn=self.reduce_fn,
                    sizes=self.plan.sizes,
                    capacity=self.plan.capacity,
                    strict=self.strict_capacity,
                )
                task_results = run_phase(reduce_task, partitions, "reduce")
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
            decode_seconds = 0.0
            for (_, (p, step, members_of_p)), result in zip(
                partitions, task_results
            ):
                task_loads.append(sum(result.loads))
                decode_seconds += result.counters["decode_seconds"]
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
            spilled_bytes=spilled_bytes,
            spill_runs=spill_runs,
            peak_buffered_pairs=peak_buffered,
        )
        engine_metrics = EngineMetrics(
            backend=backend.name,
            num_workers=backend.max_workers,
            num_map_tasks=len(map_results),
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
            encoded_bytes=encoded_bytes,
            encode_seconds=encode_seconds,
            decode_seconds=decode_seconds,
        )
        return EngineResult(
            outputs=outputs, metrics=metrics, engine=engine_metrics
        )

    @staticmethod
    def _default_chunk(
        num_records: int | None,
        backend: Backend,
        memory_budget: int | None = None,
    ) -> int:
        """Adaptive map chunk size: ~4 tasks per worker, floored at 16
        records per task so dispatch overhead never dominates.

        With an unknown record count (streaming dataset) the chunk is a
        fixed :data:`_STREAM_CHUNK`; with a memory budget it is
        additionally capped at the budget, so a budgeted serial run never
        materializes the whole input as one giant chunk.
        """
        if num_records is None:
            chunk = _STREAM_CHUNK
        elif num_records <= 0:
            return 1
        elif isinstance(backend, SerialBackend):
            chunk = num_records
        else:
            target = -(
                -num_records // (backend.max_workers * _TASKS_PER_WORKER)
            )
            chunk = min(num_records, max(_MIN_MAP_CHUNK, target))
        if memory_budget is not None:
            chunk = min(chunk, max(_MIN_MAP_CHUNK, memory_budget))
        return chunk

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
    map_chunk_size: int | None = None,
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

    The schema fixes every reducer's inputs before the run, so a map task
    ships each record once to each reduce partition that holds one of its
    reducers, not once per reducer, and the reduce task rebuilds each
    reducer's value list from the records it received
    (:class:`~repro.engine.routing.SchemaPlan`).  The job metrics stay the
    paper's: ``map_output_pairs`` and ``communication_cost`` count one
    pair per (input, reducer) membership, while
    ``EngineMetrics.pairs_shipped`` counts the routed pairs.

    The execution settings are bundled in *config* (an
    :class:`~repro.engine.config.ExecutionConfig`); without one, the
    individual keywords *backend*, *num_workers*, *map_chunk_size*,
    *num_reduce_tasks*, *memory_budget* and *spill_dir* build it, and
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
            ("map_chunk_size", map_chunk_size),
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
