"""The execution engine: parallel map/shuffle/reduce over pluggable backends.

Where :class:`repro.mapreduce.job.MapReduceJob` *simulates* a job to define
the paper's metrics, the engine *executes* the same model as physical tasks
with a **partitioned shuffle**:

* A *map task* takes a chunk of records and returns its pairs already
  grouped by key and bucketed by reduce partition (plus its pair count and
  communication cost), so the parent never re-hashes or re-groups
  individual pairs.  The number of reduce partitions is fixed before the
  map phase, exactly like a real MapReduce deployment.
* The parent's "shuffle" is just a transpose: for each partition it
  collects the per-map-task buckets, in task order.
* A *reduce task* receives its partition's pre-grouped buckets, merges them
  (task order = record order, so value order matches the simulator), checks
  the capacity per key, and reduces — the final merge happens inside the
  parallel task, not on the parent's critical path.

Where tasks run in other processes (:attr:`Backend.ships_blocks`), map tasks
return each bucket as one block (:mod:`repro.engine.codec`) that only the
reduce task decodes, so the parent moves opaque ``bytes``; the in-process
backends hand dict buckets over by reference.

Both phases run inside one backend context, so pooled backends pay pool
startup once per run (phase timings exclude that startup).  The serial
backend remains semantically identical to the simulator — same outputs in
the same order, same :class:`~repro.mapreduce.metrics.JobMetrics` — which is
what the cross-validation in :mod:`repro.engine.crossval` checks, and the
parallel backends produce the same observables for any orderable key space.

:func:`execute_schema` is the schema-driven entry point: it takes a solved
:class:`~repro.core.schema.A2ASchema`, :class:`~repro.core.schema.X2YSchema`
or :class:`~repro.core.multiway.MultiwaySchema` plus per-input records and
replicates each record to exactly the reducers the schema assigns its
input to.

Two knobs make the engine *out-of-core*: records may arrive as a streaming
:class:`~repro.dataset.Dataset` (consumed chunk by chunk, never
materialized in the parent), and a ``memory_budget`` bounds the pairs a map
task buffers before spilling sorted runs to disk
(:mod:`repro.engine.spill`), which reduce tasks stream-merge back in
sorted-key order.  Outputs and strict-mode exceptions are identical to the
in-memory path; only the spill counters in the job metrics differ.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro.core.multiway import MultiwaySchema
from repro.core.schema import A2ASchema, X2YSchema
from repro.dataset import Dataset, as_dataset, iter_chunks
from repro.engine.backends import Backend, SerialBackend, get_backend
from repro.engine.codec import decode_block_groups, encode_groups
from repro.engine.config import ExecutionConfig
from repro.engine.metrics import EngineMetrics, PhaseTimings
from repro.engine.routing import build_schema_plan
from repro.engine.spill import (
    MapSpill,
    make_spill_dir,
    merge_sources,
    spill_groups,
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
from repro.obs.profiler import ProfileCapture, phase_span
from repro.obs.trace import Tracer, as_tracer, worker_span
from repro.mapreduce.shuffle import (
    map_record,
    ordered_keys,
    partition_groups,
)
from repro.mapreduce.types import MapFn, ReduceFn, SizeFn, default_size

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
            ``None`` when encoded); a reduce task's per-key outputs, or
            ``None`` when strict capacity discarded them.
        counters: named task counters (``records``, ``pairs``, ...) that
            the parent sums; they also label the task's worker span.
        loads: a reduce task's per-key loads in key order (empty for map).
        spill: a map task's spill runs (``None`` without a memory budget).
        span: the worker span, set when tracing is on; a profiling
            tracer's tasks also put their ``cProfile`` table on it
            (``span["functions"]``).
    """

    outputs: Any
    counters: dict[str, float]
    loads: list[tuple[Hashable, int]] = field(default_factory=list)
    spill: MapSpill | None = None
    span: dict[str, Any] | None = None


def _run_map_task(
    chunk: list[Any],
    *,
    map_fn: MapFn,
    combiner_fn: ReduceFn | None,
    size_of: SizeFn,
    num_partitions: int,
    memory_budget: int | None = None,
    spill_dir: str | None = None,
    check_keys: bool = True,
    encode: bool = False,
) -> TaskResult:
    """One map task: map (and combine) a chunk into partition-bucketed groups.

    The result's ``outputs`` are the buckets: ``outputs[p]`` maps each key
    of reduce partition ``p`` to its value list in record order.  Its
    counters are ``records``, ``pairs``, ``comm``, ``peak_buffered``,
    ``encoded_bytes`` and ``encode_seconds``.  Pair counting and size
    accounting happen here, in the (parallel) task, so the parent does no
    per-pair work at all.  Module-level so process-pool workers can
    unpickle it; the configuration is bound via :func:`functools.partial`
    and pickled once per phase.

    With *encode* (set exactly when the backend ships results across a
    process boundary), each non-empty bucket is returned as one block
    (:mod:`repro.engine.codec`) instead of a dict, and empty buckets as
    ``None``, so the parent moves opaque ``bytes`` and never unpickles
    per-pair objects.  ``encoded_bytes``/``encode_seconds`` report that
    work; both are 0 on the in-process backends, whose dict buckets are
    handed over by reference.

    With a *memory_budget*, the task flushes its buffered groups to
    per-partition sorted run files in *spill_dir* whenever the buffered
    pair count reaches the budget; whatever remains at the end of the
    chunk is returned in-memory as usual, so unbudgeted runs take this
    exact code path with zero flushes.  *check_keys* rejects keys that are
    not equal to themselves (NaN floats and friends): such keys cannot be
    grouped consistently by any shuffle — each NaN object becomes its own
    dict entry — and would silently diverge between the dict-based and the
    sorted spill-file merge.
    """
    groups: dict[Hashable, list[Any]] = {}
    pair_count = 0
    comm = 0
    record_count = 0
    buffered = 0
    peak_buffered = 0
    spill = MapSpill() if memory_budget is not None else None
    for record in chunk:
        record_count += 1
        emitted = map_record(record, map_fn, combiner_fn)
        pair_count += len(emitted)
        buffered += len(emitted)
        for key, value in emitted:
            comm += size_of(value)
            values = groups.get(key)
            if values is None:
                if check_keys and key != key:
                    raise InvalidInstanceError(
                        f"map emitted a non-self-equal key {key!r} (e.g. "
                        "NaN): such keys cannot be grouped consistently; "
                        "use a self-equal surrogate key instead"
                    )
                groups[key] = [value]
            else:
                values.append(value)
        if spill is not None:
            # Peak tracking is tied to the budget: unbounded runs report 0
            # so their JobMetrics stay identical across backends (the
            # unbounded peak would just echo the backend's chunking).
            if buffered > peak_buffered:
                peak_buffered = buffered
            if buffered >= memory_budget and groups:
                spill_groups(groups, num_partitions, spill_dir, spill)
                groups = {}
                buffered = 0
    buckets: Any = partition_groups(groups, num_partitions)
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
        buckets = blocks
        encode_seconds = time.perf_counter() - encode_started
    return TaskResult(
        outputs=buckets,
        counters={
            "records": record_count,
            "pairs": pair_count,
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


def _run_reduce_task(
    sources: list[Any],
    *,
    reduce_fn: ReduceFn,
    size_of: SizeFn,
    capacity: int | None,
    strict: bool,
) -> TaskResult:
    """One reduce task: merge a partition's sources and reduce each key.

    ``sources`` holds, in spill order (map-task order, then flush order
    within a task, with each task's in-memory leftover last), bucket
    dicts, blocks (``bytes``, decoded here, in the parallel task), or
    paths of sorted run files.
    Extending value lists in that order reproduces the simulator's global
    record order.  When every source is in-memory the merge is the
    dict-based fast path; as soon as one source lives on disk the whole
    partition goes through the streaming external merge, which holds one
    key's merged values at a time.  The result carries the per-key
    outputs and loads, and counts ``keys`` and ``decode_seconds`` (time
    spent decoding block sources).  Under strict capacity, a task whose
    partition contains an overloaded key discards its outputs
    (``outputs=None``) — the parent merges all loads and raises for the
    globally smallest offending key, so the strict-mode exception is
    identical to the simulator's.
    """
    sources, decode_seconds = _resolve_sources(sources)
    stream: Iterable[tuple[Hashable, list[Any]]]
    if any(isinstance(source, str) for source in sources):
        stream = merge_sources(sources)
    else:
        merged: dict[Hashable, list[Any]] = {}
        for slab in sources:
            for key, values in slab.items():
                existing = merged.get(key)
                if existing is None:
                    merged[key] = values
                else:
                    existing.extend(values)
        stream = ((key, merged[key]) for key in ordered_keys(merged))
    loads: list[tuple[Hashable, int]] = []
    overloaded = False
    results: list[tuple[Hashable, list[Any]]] = []
    for key, values in stream:
        load = sum(size_of(value) for value in values)
        loads.append((key, load))
        if capacity is not None and load > capacity:
            overloaded = True
        if not (strict and overloaded):
            results.append((key, list(reduce_fn(key, values))))
    return TaskResult(
        outputs=None if strict and overloaded else results,
        counters={"keys": len(loads), "decode_seconds": decode_seconds},
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
    """Runs a MapReduce job as parallel tasks on a pluggable backend.

    Attributes:
        map_fn: record -> iterable of (key, value); must be picklable for
            the ``processes`` backend (module-level function or a
            :func:`functools.partial` over one).
        reduce_fn: (key, values) -> iterable of outputs; same picklability
            caveat.
        combiner_fn: optional mapper-side combiner, applied per record.
        size_of: value-size function for capacity/communication accounting;
            picklability caveat again (it runs inside map and reduce tasks).
        reducer_capacity: the paper's ``q``; checked per key, exactly like
            the simulator.
        strict_capacity: raise on overflow (True) or record violations.
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

    map_fn: MapFn
    reduce_fn: ReduceFn
    combiner_fn: ReduceFn | None = None
    size_of: SizeFn = default_size
    reducer_capacity: int | None = None
    strict_capacity: bool = True
    tracer: Tracer | None = None
    config: ExecutionConfig = field(default_factory=ExecutionConfig)

    def run(self, records: Iterable[Any] | Dataset) -> EngineResult:
        """Execute the job end-to-end and return outputs plus metrics.

        *records* may be any iterable or a :class:`~repro.dataset.Dataset`;
        non-materialized datasets are consumed chunk by chunk, so the full
        input is never held in the parent at once (pooled backends keep a
        bounded window of chunks in flight, retry or not).  The run
        deadline starts counting here.
        """
        deadline = self.config.deadline
        deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        dataset = as_dataset(records)
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
            # pairs pre-grouped by key and bucketed by reduce partition
            # (overflow beyond the memory budget goes to sorted spill runs).
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
                map_task = partial(
                    _run_map_task,
                    map_fn=self.map_fn,
                    combiner_fn=self.combiner_fn,
                    size_of=self.size_of,
                    num_partitions=num_partitions,
                    memory_budget=config.memory_budget,
                    spill_dir=run_spill_dir,
                    check_keys=self.strict_capacity
                    or config.memory_budget is not None,
                    encode=backend.ships_blocks,
                )
                map_results = run_phase(map_task, chunks, "map")
                map_span.set("tasks", len(map_results))
                map_seconds = time.perf_counter() - map_started

            # --- shuffle: a transpose.  Collect each partition's sources
            # across map tasks — spilled runs in flush order, then the
            # task's in-memory leftover (a dict bucket, or an opaque
            # block on block-shipping backends) — and drop empty
            # partitions; no per-pair or per-key work happens here.
            with phase_span(tracer, "shuffle", capture=True) as shuffle_span:
                shuffle_started = time.perf_counter()
                map_inputs = _total(map_results, "records")
                map_pairs = _total(map_results, "pairs")
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
                partitions: list[list[Any]] = []
                for p in range(num_partitions):
                    sources: list[Any] = []
                    for result in map_results:
                        if result.spill is not None:
                            sources.extend(result.spill.partition_runs(p))
                        if result.outputs[p]:
                            sources.append(result.outputs[p])
                    if sources:
                        partitions.append(sources)
                shuffle_span.set("pairs", map_pairs)
                shuffle_span.set("partitions", len(partitions))
                shuffle_span.set("spilled_bytes", spilled_bytes)
                if encoded_bytes:
                    shuffle_span.set("encoded_bytes", encoded_bytes)
                shuffle_seconds = time.perf_counter() - shuffle_started

            # --- reduce phase: each task merges its partition's sources,
            # accounts per-key loads, and reduces.
            with phase_span(tracer, "reduce") as reduce_span:
                reduce_started = time.perf_counter()
                reduce_task = partial(
                    _run_reduce_task,
                    reduce_fn=self.reduce_fn,
                    size_of=self.size_of,
                    capacity=self.reducer_capacity,
                    strict=self.strict_capacity,
                )
                task_results = run_phase(reduce_task, partitions, "reduce")
                reduce_span.set("tasks", len(partitions))
                reduce_run_seconds = time.perf_counter() - reduce_started

        # --- post-pass (pool already released; its shutdown is not timed):
        # merge per-task loads, enforce capacity in global sorted-key order
        # (identical to the simulator), and reassemble outputs in that same
        # order.
        post_started = time.perf_counter()
        with phase_span(tracer, "post", capture=True) as post_span:
            loads: dict[Hashable, int] = {}
            outputs_by_key: dict[Hashable, list[Any]] = {}
            task_loads: list[int] = []
            decode_seconds = 0.0
            for result in task_results:
                task_loads.append(sum(load for _, load in result.loads))
                loads.update(result.loads)
                decode_seconds += result.counters["decode_seconds"]
                if result.outputs is not None:
                    for key, outs in result.outputs:
                        outputs_by_key[key] = outs
            keys = ordered_keys(loads)
            violations: list[Hashable] = []
            if self.reducer_capacity is not None:
                for key in keys:
                    if loads[key] > self.reducer_capacity:
                        if self.strict_capacity:
                            raise CapacityExceededError(
                                f"reducer for key {key!r} received load "
                                f"{loads[key]} > capacity "
                                f"{self.reducer_capacity}",
                                key=key,
                                load=loads[key],
                                capacity=self.reducer_capacity,
                            )
                        violations.append(key)
            outputs = [out for key in keys for out in outputs_by_key[key]]
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
            max_reducer_load=max(loads.values(), default=0),
            capacity=self.reducer_capacity,
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
            task_loads=tuple(task_loads),
            capacity=self.reducer_capacity,
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
    combiner_fn: ReduceFn | None = None,
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
    ``(side, i, record)``.  Each record is replicated to exactly the
    reducers the schema assigns its input to; reduce keys are the schema's
    reducer indices; capacity ``q`` is enforced with the instance's declared
    sizes, so a valid schema can never overflow.

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
    map_fn, size_of, wrapped = build_schema_plan(schema, records)
    engine = ExecutionEngine(
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        combiner_fn=combiner_fn,
        size_of=size_of,
        reducer_capacity=schema.instance.q,
        strict_capacity=strict_capacity,
        tracer=tracer,
        config=config,
    )
    return engine.run(wrapped)
