"""Cross-validation of the engine against the reference simulator.

The simulator (:class:`repro.mapreduce.job.MapReduceJob`) is the ground
truth for the paper's metrics; the engine must agree with it exactly — same
outputs in the same order, same :class:`~repro.mapreduce.metrics.JobMetrics`
— before its parallel backends mean anything.  This module runs both
executors on identical inputs and diffs every observable.  The simulator
is only this oracle: every application executes on the engine.

The oracle routes a schema job the way the paper counts it: its map
functions, :func:`route_a2a` and :func:`route_x2y`, emit one pair per
(input, reducer) membership.  The engine ships each record once per
reduce partition instead (:mod:`repro.engine.routing`), so the diff also
checks that the routed shuffle rebuilds every reducer's value list and
the per-reducer metrics exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Hashable, Sequence

from repro.core.multiway import MultiwaySchema
from repro.core.schema import A2ASchema, X2YSchema
from repro.dataset import Dataset
from repro.engine.config import ExecutionConfig
from repro.engine.engine import EngineResult, execute_schema
from repro.engine.routing import (
    a2a_memberships,
    build_schema_plan,
    x2y_memberships,
)
from repro.mapreduce.job import JobResult, MapReduceJob
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.types import MapFn, ReduceFn
from repro.obs.trace import Tracer


def route_a2a(
    record: tuple[int, Any], memberships: tuple[tuple[int, ...], ...]
) -> list[tuple[Hashable, Any]]:
    """Oracle map function for A2A and multiway schemas: replicate
    ``(i, payload)`` to every reducer input *i* belongs to.  Module-level,
    hence picklable under :func:`functools.partial`."""
    index, _ = record
    return [(r, record) for r in memberships[index]]


def route_x2y(
    record: tuple[str, int, Any],
    x_memberships: tuple[tuple[int, ...], ...],
    y_memberships: tuple[tuple[int, ...], ...],
) -> list[tuple[Hashable, Any]]:
    """Oracle map function for X2Y schemas: route ``(side, i, payload)``
    by its side's membership list."""
    side, index, _ = record
    members = x_memberships if side == "x" else y_memberships
    return [(r, record) for r in members[index]]


def oracle_map_fn(schema: A2ASchema | X2YSchema | MultiwaySchema) -> MapFn:
    """The per-reducer map function the oracle runs *schema* with."""
    if isinstance(schema, X2YSchema):
        x_members, y_members = x2y_memberships(schema)
        return partial(
            route_x2y,
            x_memberships=tuple(map(tuple, x_members)),
            y_memberships=tuple(map(tuple, y_members)),
        )
    return partial(
        route_a2a, memberships=tuple(map(tuple, a2a_memberships(schema)))
    )


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

    The simulator is fed the *same* wrapped records and sizes the engine
    uses (both come from :func:`repro.engine.routing.build_schema_plan`)
    and routes them per reducer with :func:`oracle_map_fn`, so any
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
    engine_result = execute_schema(
        schema,
        records,
        reduce_fn,
        config=config,
        tracer=tracer,
    )

    plan = build_schema_plan(schema, records)
    job = MapReduceJob(
        map_fn=oracle_map_fn(schema),
        reduce_fn=reduce_fn,
        size_of=plan.size_of,
        reducer_capacity=schema.instance.q,
        strict_capacity=True,
    )
    job_result = job.run(plan.records)
    return engine_result, job_result, compare_results(engine_result, job_result)
