"""Cross-validation of the engine against the reference simulator.

The simulator (:class:`repro.mapreduce.job.MapReduceJob`) is the ground
truth for the paper's metrics; the engine must agree with it exactly — same
outputs in the same order, same :class:`~repro.mapreduce.metrics.JobMetrics`
— before its parallel backends mean anything.  This module runs both
executors on identical inputs and diffs every observable.  The simulator
is only this oracle: every application executes on the engine.

The oracle routes a plan the way the paper counts it: its map function,
:func:`oracle_map_fn`, emits one pair per (input, reducer) membership.
The engine ships each record once per reduce partition instead
(:mod:`repro.engine.routing`), so the diff also checks that the routed
shuffle rebuilds every reducer's value list and the per-reducer metrics
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Callable, Hashable, Sequence

from repro.core.multiway import MultiwaySchema
from repro.core.schema import A2ASchema, X2YSchema
from repro.dataset import Dataset
from repro.engine.config import ExecutionConfig
from repro.engine.engine import EngineResult, ExecutionEngine
from repro.engine.routing import SchemaPlan, build_schema_plan
from repro.mapreduce.job import JobResult, MapReduceJob
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.types import MapFn, ReduceFn
from repro.obs.trace import Tracer


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
    per reducer by :func:`oracle_map_fn` and sized by the plan, reduced by
    the engine's reduce function under the plan's capacity and the
    engine's strictness."""
    plan = engine.plan
    return MapReduceJob(
        map_fn=oracle_map_fn(plan),
        reduce_fn=engine.reduce_fn,
        size_of=plan.size_of,
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
    excluded from the diff)."""
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
    (:func:`oracle_run`), so any
    disagreement is an executor bug rather than an encoding difference.
    The engine runs on *config* (default: serial).  A ``memory_budget``
    in it routes the engine through the spill-to-disk shuffle, and
    fault-plane settings through retried, fault-injected tasks; either
    way the engine must produce the simulator's exact outputs and
    analytical metrics.  *records* may be a re-iterable
    :class:`~repro.dataset.Dataset` (both executors read it).  A *tracer*
    (profiling or not) instruments the engine run, which must not change
    what it computes.
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
