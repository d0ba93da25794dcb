"""Cross-validation of the engine against the reference simulator.

The simulator (:class:`repro.mapreduce.job.MapReduceJob`) is the ground
truth for the paper's metrics; the engine must agree with it exactly — same
outputs in the same order, same :class:`~repro.mapreduce.metrics.JobMetrics`
— before its parallel backends mean anything.  This module runs both
executors on identical inputs and diffs every observable.  The simulator
is only this oracle: every application executes on the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Sequence

from repro.core.multiway import MultiwaySchema
from repro.core.schema import A2ASchema, X2YSchema
from repro.engine.config import ExecutionConfig
from repro.engine.engine import EngineResult, execute_schema
from repro.engine.routing import build_schema_plan
from repro.mapreduce.job import JobResult, MapReduceJob
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.types import ReduceFn
from repro.obs.trace import Tracer


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
    records: Sequence[Any] | tuple[Sequence[Any], Sequence[Any]],
    reduce_fn: ReduceFn,
    *,
    combiner_fn: ReduceFn | None = None,
    config: ExecutionConfig | None = None,
    tracer: Tracer | None = None,
) -> tuple[EngineResult, JobResult, CrossValidationReport]:
    """Run a schema-driven job on both executors and diff the results.

    The simulator is fed the *same* wrapped records and the same routing
    map function the engine uses (both come from
    :func:`repro.engine.routing.build_schema_plan`), so any disagreement is
    an executor bug rather than an encoding difference.  The engine runs
    on *config* (default: serial).  A ``memory_budget`` in it routes the
    engine through the spill-to-disk shuffle, and fault-plane settings
    through retried, fault-injected tasks; either way the engine must
    produce the simulator's exact outputs and analytical metrics.  A
    *tracer* (profiling or not) instruments the engine run, which must
    not change what it computes.
    """
    engine_result = execute_schema(
        schema,
        records,
        reduce_fn,
        combiner_fn=combiner_fn,
        config=config,
        tracer=tracer,
    )

    map_fn, size_of, wrapped = build_schema_plan(schema, records)
    job = MapReduceJob(
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        combiner_fn=combiner_fn,
        size_of=size_of,
        reducer_capacity=schema.instance.q,
        strict_capacity=True,
    )
    job_result = job.run(wrapped)
    return engine_result, job_result, compare_results(engine_result, job_result)
