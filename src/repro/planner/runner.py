"""The pipeline's last stage: run a plan on the execution engine.

:func:`run` funnels a :class:`~repro.planner.plan.Plan` into
:func:`repro.engine.engine.execute_schema`: the plan's chosen schema
routes the records, and the caller's
:class:`~repro.engine.config.ExecutionConfig` configures the engine, or
without one the config
:func:`~repro.planner.planner.resolve_execution_config` gives for this
machine.  Applications therefore reduce to spec building plus result
formatting — schema choice lives in the plan, execution tuning in one
rule applied at run time.  All three schema kinds run here: a multiway
plan's reducers are input sets over one input list, so the engine routes
them exactly like an A2A plan's.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.dataset import Dataset
from repro.engine.config import ExecutionConfig
from repro.engine.engine import EngineResult, ReduceFn, execute_schema
from repro.obs.trace import Tracer
from repro.planner.environment import Environment
from repro.planner.plan import Plan
from repro.planner.planner import resolve_execution_config


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
    for X2Y plans.  *config* sets how the job runs (e.g. to pin a
    backend in a benchmark sweep); without one, the config is resolved
    from :meth:`Environment.detect` and the chosen schema's shape.
    *tracer* (optional)
    collects the engine's phase and task spans for this run; a profiling
    tracer (``Tracer(profile=True)``) additionally attributes CPU/RSS and
    function time to the engine phases.
    """
    schema = plan.schema()
    if config is None:
        config = resolve_execution_config(
            Environment.detect(),
            communication_cost=schema.communication_cost,
            total_size=plan.spec.total_size,
            num_inputs=plan.spec.num_inputs,
        )
    return execute_schema(
        schema,
        records,
        reduce_fn,
        strict_capacity=strict_capacity,
        config=config,
        tracer=tracer,
    )
