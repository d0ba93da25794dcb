"""The pipeline's last stage: run a plan on the execution engine.

:func:`run` funnels a :class:`~repro.planner.plan.Plan` into
:func:`repro.engine.engine.execute_schema`: the plan's chosen schema
routes the records, and the plan's resolved
:class:`~repro.engine.config.ExecutionConfig` configures the engine
unless the caller overrides it.  Applications therefore reduce to spec
building plus result formatting — schema choice and execution tuning
both live in the plan.  All three schema kinds run here: a multiway
plan's reducers are input sets over one input list, so the engine routes
them exactly like an A2A plan's.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.dataset import Dataset
from repro.engine.config import ExecutionConfig
from repro.engine.engine import EngineResult, ReduceFn, execute_schema
from repro.obs.trace import Tracer
from repro.planner.plan import Plan


def run(
    plan: Plan,
    records: Sequence[Any] | Dataset | tuple[Sequence[Any], Sequence[Any]],
    reduce_fn: ReduceFn,
    *,
    strict_capacity: bool = True,
    config: ExecutionConfig | None = None,
    tracer: Tracer | None = None,
) -> EngineResult:
    """Execute a plan's chosen schema over *records* on the engine.

    *records* follows :func:`~repro.engine.engine.execute_schema`'s
    contract: a sequence or streaming dataset aligned with the instance's
    inputs for A2A and multiway plans, an ``(x_records, y_records)`` pair
    for X2Y plans.  *config* overrides the plan's resolved execution
    configuration (e.g. to pin a backend in a benchmark sweep); by
    default the plan runs exactly as planned.  *tracer* (optional)
    collects the engine's phase and task spans for this run; a profiling
    tracer (``Tracer(profile=True)``) additionally attributes CPU/RSS and
    function time to the engine phases.
    """
    return execute_schema(
        plan.schema(),
        records,
        reduce_fn,
        strict_capacity=strict_capacity,
        config=config if config is not None else plan.execution,
        tracer=tracer,
    )
