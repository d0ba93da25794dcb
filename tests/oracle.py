"""The reference simulator and the engine's cross-validation, for tests.

:class:`MapReduceJob` runs the abstract model the paper defines its
metrics on: mappers emit key-value pairs, the shuffle groups values by
key into one dict (:func:`group_pairs`), and a *reducer* is one
application of the reduce function to a key and its value list, bounded
by the capacity ``q`` on the sum of value sizes.  Its job is to define
the metrics — communication cost, reducer count, per-reducer load
against ``q`` — not to be fast.

The execution engine (:mod:`repro.engine.engine`) must agree with it
exactly — same outputs in the same order, same
:class:`~repro.engine.metrics.JobMetrics` — before its backends mean
anything.  :func:`validate_against_simulator` and :func:`oracle_run` run
both executors on identical inputs and :func:`compare_results` diffs
every observable.  The two agree because both reduce in sorted key order
(:func:`ordered_keys`; the engine's keys are reducer indices).

The oracle routes a plan the way the paper counts it: its map function,
:func:`oracle_map_fn`, emits one pair per (input, reducer) membership,
and it sizes a record as ``plan.sizes[plan.key_of(record)]``.  The
engine ships each record once per reduce partition instead
(:mod:`repro.engine.routing`), so the diff also checks that the routed
shuffle rebuilds every reducer's value list and the per-reducer metrics
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.core.multiway import MultiwaySchema
from repro.core.schema import A2ASchema, X2YSchema
from repro.dataset import Dataset
from repro.engine.config import ExecutionConfig
from repro.engine.engine import EngineResult, ExecutionEngine, ReduceFn
from repro.engine.metrics import JobMetrics
from repro.engine.routing import SchemaPlan, build_schema_plan, default_size
from repro.exceptions import CapacityExceededError
from repro.obs.trace import Tracer

#: A mapper takes one input record and yields (key, value) pairs.
MapFn = Callable[[Any], Iterable[tuple[Hashable, Any]]]

#: Sizes a value for capacity/communication accounting.
SizeFn = Callable[[Any], int]


def group_pairs(
    pairs: Iterable[tuple[Hashable, Any]],
    groups: dict[Hashable, list[Any]] | None = None,
) -> dict[Hashable, list[Any]]:
    """Shuffle: append ``(key, value)`` pairs into per-key value lists.

    Passing an existing *groups* dict accumulates across calls; values keep
    arrival order so grouping is deterministic for a fixed record order.
    """
    if groups is None:
        groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def ordered_keys(groups: dict[Hashable, Any]) -> list[Hashable]:
    """Keys in sorted order when orderable, else insertion order.

    The simulator reduces keys in this order; for reducer-index keys it
    is the engine's order too, which is what makes their outputs
    byte-identical for the same inputs.
    """
    try:
        return sorted(groups)
    except TypeError:
        return list(groups)


@dataclass(frozen=True)
class JobResult:
    """Outputs plus metrics of one job run."""

    outputs: list
    metrics: JobMetrics


@dataclass
class MapReduceJob:
    """A single MapReduce job over in-memory records.

    Attributes:
        map_fn: record -> iterable of (key, value).
        reduce_fn: (key, values) -> iterable of outputs.
        size_of: value-size function for capacity and communication
            accounting (defaults to :func:`~repro.engine.routing.default_size`).
        reducer_capacity: the paper's ``q``; when set, each reducer's total
            value size is checked against it.
        strict_capacity: when True (default) exceeding the capacity raises
            :class:`CapacityExceededError`; when False the violation is
            recorded in the metrics and the reducer still runs — used by
            experiments that *measure* how badly a baseline overflows.
    """

    map_fn: MapFn
    reduce_fn: ReduceFn
    size_of: SizeFn = default_size
    reducer_capacity: int | None = None
    strict_capacity: bool = True

    def run(self, records: Iterable[Any]) -> JobResult:
        """Execute the job: map every record, shuffle, reduce every key.

        Keys are reduced in sorted order when orderable (falling back to
        insertion order) so runs are deterministic.
        """
        groups, map_inputs, map_pairs, comm = self._map_and_shuffle(records)
        return self._reduce(groups, map_inputs, map_pairs, comm)

    def _map_and_shuffle(
        self, records: Iterable[Any]
    ) -> tuple[dict[Hashable, list[Any]], int, int, int]:
        """Run the map phase and group pairs by key."""
        groups: dict[Hashable, list[Any]] = {}
        map_inputs = 0
        map_pairs = 0
        comm = 0
        for record in records:
            map_inputs += 1
            emitted = list(self.map_fn(record))
            map_pairs += len(emitted)
            comm += sum(self.size_of(value) for _, value in emitted)
            group_pairs(emitted, groups)
        return groups, map_inputs, map_pairs, comm

    def _reduce(
        self,
        groups: dict[Hashable, list[Any]],
        map_inputs: int,
        map_pairs: int,
        comm: int,
    ) -> JobResult:
        """Run every reducer, enforcing the capacity if configured."""
        outputs: list[Any] = []
        loads: dict[Hashable, int] = {}
        violations: list[Hashable] = []
        for key in ordered_keys(groups):
            values = groups[key]
            load = sum(self.size_of(v) for v in values)
            loads[key] = load
            if self.reducer_capacity is not None and load > self.reducer_capacity:
                if self.strict_capacity:
                    raise CapacityExceededError(
                        f"reducer for key {key!r} received load {load} "
                        f"> capacity {self.reducer_capacity}",
                        key=key,
                        load=load,
                        capacity=self.reducer_capacity,
                    )
                violations.append(key)
            outputs.extend(self.reduce_fn(key, values))

        metrics = JobMetrics(
            map_input_records=map_inputs,
            map_output_pairs=map_pairs,
            communication_cost=comm,
            num_reducers=len(groups),
            reducer_loads=loads,
            max_reducer_load=max(loads.values(), default=0),
            capacity=self.reducer_capacity,
            capacity_violations=tuple(violations),
            output_records=len(outputs),
        )
        return JobResult(outputs=outputs, metrics=metrics)


def route_members(
    record: Any,
    *,
    key_of: Callable[[Any], Hashable],
    memberships: dict[Hashable, tuple[int, ...]],
) -> list[tuple[int, Any]]:
    """Oracle map function: replicate a wrapped record to every reducer
    whose members hold its input key.  Module-level, hence picklable under
    :func:`functools.partial`."""
    return [(r, record) for r in memberships.get(key_of(record), ())]


def oracle_map_fn(plan: SchemaPlan) -> MapFn:
    """The per-reducer map function the oracle runs *plan* with: each
    record goes to every reducer whose ``plan.members`` holds its key."""
    memberships: dict[Hashable, list[int]] = {}
    for r, members in enumerate(plan.members):
        for key in members:
            memberships.setdefault(key, []).append(r)
    return partial(
        route_members,
        key_of=plan.key_of,
        memberships={key: tuple(rs) for key, rs in memberships.items()},
    )


def oracle_run(engine: ExecutionEngine) -> JobResult:
    """The simulator's run of *engine*'s job: the plan's records routed
    per reducer by :func:`oracle_map_fn` and sized by the plan's declared
    sizes, reduced by the engine's reduce function under the plan's
    capacity and the engine's strictness."""
    plan = engine.plan
    return MapReduceJob(
        map_fn=oracle_map_fn(plan),
        reduce_fn=engine.reduce_fn,
        size_of=lambda record: plan.sizes[plan.key_of(record)],
        reducer_capacity=plan.capacity,
        strict_capacity=engine.strict_capacity,
    ).run(plan.records)


@dataclass(frozen=True)
class CrossValidationReport:
    """Diff between an engine run and a simulator run on the same inputs."""

    outputs_match: bool
    metrics_match: bool
    mismatches: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when outputs and every metric field agree exactly."""
        return self.outputs_match and self.metrics_match

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            return "engine == simulator (outputs and metrics identical)"
        return "engine != simulator: " + "; ".join(self.mismatches)


#: JobMetrics fields that describe the *physical* execution rather than
#: the paper's analytical model.  The simulator never spills, so an
#: out-of-core engine run legitimately differs here; everything else must
#: match exactly.
_EXECUTION_ONLY_FIELDS = frozenset(
    {"spilled_bytes", "spill_runs", "peak_buffered_pairs"}
)


def compare_results(
    engine_result: EngineResult, job_result: JobResult
) -> CrossValidationReport:
    """Diff outputs (order-sensitive) and every analytical
    :class:`JobMetrics` field (spill counters are execution facts and are
    excluded from the diff).  ``reducer_loads`` must also list its
    reducers in the same order, since dict equality ignores order but
    ``repr`` does not."""
    mismatches: list[str] = []
    outputs_match = engine_result.outputs == job_result.outputs
    if not outputs_match:
        mismatches.append(
            f"outputs differ ({len(engine_result.outputs)} engine vs "
            f"{len(job_result.outputs)} simulator records)"
        )
    metrics_match = True
    for spec in fields(JobMetrics):
        if spec.name in _EXECUTION_ONLY_FIELDS:
            continue
        mine = getattr(engine_result.metrics, spec.name)
        theirs = getattr(job_result.metrics, spec.name)
        if mine != theirs:
            metrics_match = False
            mismatches.append(f"metrics.{spec.name}: {mine!r} != {theirs!r}")
    mine_order = list(engine_result.metrics.reducer_loads)
    theirs_order = list(job_result.metrics.reducer_loads)
    if mine_order != theirs_order:
        metrics_match = False
        mismatches.append(
            f"metrics.reducer_loads key order: {mine_order!r} != "
            f"{theirs_order!r}"
        )
    return CrossValidationReport(
        outputs_match=outputs_match,
        metrics_match=metrics_match,
        mismatches=tuple(mismatches),
    )


def validate_against_simulator(
    schema: A2ASchema | X2YSchema | MultiwaySchema,
    records: Sequence[Any] | Dataset | tuple[Sequence[Any], Sequence[Any]],
    reduce_fn: ReduceFn,
    *,
    config: ExecutionConfig | None = None,
    tracer: Tracer | None = None,
) -> tuple[EngineResult, JobResult, CrossValidationReport]:
    """Run a schema-driven job on both executors and diff the results.

    Both executors run the *same* plan
    (:func:`repro.engine.routing.build_schema_plan`): the engine ships
    it, and the simulator routes its records per reducer
    (:func:`oracle_run`), so any disagreement is an executor bug rather
    than an encoding difference.  The engine runs on *config* (default:
    serial).  A ``memory_budget`` in it routes the engine through the
    spill-to-disk shuffle, and fault-plane settings through retried,
    fault-injected tasks; either way the engine must produce the
    simulator's exact outputs and analytical metrics.  *records* may be
    a re-iterable :class:`~repro.dataset.Dataset` (both executors read
    it).  A *tracer* (profiling or not) instruments the engine run, which
    must not change what it computes.
    """
    engine = ExecutionEngine(
        plan=build_schema_plan(schema, records),
        reduce_fn=reduce_fn,
        tracer=tracer,
        config=config if config is not None else ExecutionConfig(),
    )
    engine_result = engine.run()
    job_result = oracle_run(engine)
    return engine_result, job_result, compare_results(engine_result, job_result)
