"""Distributed outer (tensor) product on the simulated cluster.

The paper's third X2Y example: for block-partitioned vectors ``u`` and
``v``, every (u-block, v-block) pair must meet to produce its tile of the
outer-product matrix ``u v^T``.  Blocks of different sizes are exactly the
different-sized inputs the schema machinery handles.

A thin spec builder over the planner: :func:`outer_product_spec` states
the problem, the planner picks the schema, and the engine path funnels
through :func:`repro.planner.run` (the default path stays on the
reference simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

from repro import planner
from repro.core.schema import X2YSchema
from repro.engine.config import ExecutionConfig, resolve_execution
from repro.engine.metrics import EngineMetrics
from repro.engine.routing import build_schema_plan, x2y_reducer_masks
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.metrics import JobMetrics
from repro.planner import JobSpec, Plan
from repro.workloads.vectors import BlockVector, VectorBlock


@dataclass(frozen=True)
class OuterProductRun:
    """Result of a distributed outer product.

    Attributes:
        entries: ``(row, col, value)`` triples covering the whole matrix,
            each exactly once.
        schema: the X2Y mapping schema used.
        metrics: simulator metrics (engine runs report the identical
            analytical metrics).
        shape: ``(len(u), len(v))`` of the full matrix.
        engine: physical execution metrics when the run went through the
            engine; ``None`` for simulator runs.
        plan: the planner's full decision record for this run.
    """

    entries: tuple[tuple[int, int, float], ...]
    schema: X2YSchema
    metrics: JobMetrics
    shape: tuple[int, int]
    engine: EngineMetrics | None = None
    plan: Plan | None = None

    def dense(self) -> list[list[float]]:
        """Assemble the dense matrix from the emitted entries."""
        rows, cols = self.shape
        matrix = [[0.0] * cols for _ in range(rows)]
        for r, c, v in self.entries:
            matrix[r][c] = v
        return matrix


def outer_product_spec(
    u: BlockVector,
    v: BlockVector,
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
) -> JobSpec:
    """The outer product as a declarative X2Y spec (block sizes per side)."""
    return JobSpec.x2y(
        u.blocks,
        v.blocks,
        q,
        method=None if method == "planned" else method,
        objective=objective,
    )


def _outer_product_reduce(
    key: int,
    values: list[tuple[str, int, VectorBlock]],
    *,
    masks: tuple[tuple[int, ...], tuple[int, ...]],
) -> Iterator[tuple[int, int, float]]:
    """Reducer: emit the tiles of the block pairs this reducer owns.

    Values arrive as ``(side, input_index, block)`` with side ``"x"`` for
    u-blocks and ``"y"`` for v-blocks.  Reducer *key* owns a pair when no
    earlier reducer holds both (the bitmask rule of
    :func:`x2y_reducer_masks`).  Module-level so the ``processes``
    backend can pickle it.
    """
    x_masks, y_masks = masks
    low = (1 << key) - 1
    u_blocks = [(i, block) for side, i, block in values if side == "x"]
    v_blocks = [(j, block) for side, j, block in values if side == "y"]
    for i, ub in u_blocks:
        earlier = x_masks[i] & low
        for j, vb in v_blocks:
            if earlier & y_masks[j]:
                continue
            for a, u_val in enumerate(ub.values):
                for b, v_val in enumerate(vb.values):
                    yield (ub.offset + a, vb.offset + b, u_val * v_val)


def distributed_outer_product(
    u: BlockVector,
    v: BlockVector,
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
    backend: str | None = None,
    num_workers: int | None = None,
    config: ExecutionConfig | None = None,
) -> OuterProductRun:
    """Compute ``u v^T`` with an X2Y mapping schema.

    Block sizes define the instance; each reducer computes the tiles of the
    (u-block, v-block) pairs it canonically owns.  Capacity is strict — a
    correct schema cannot overflow.  With neither ``backend=`` nor
    ``config=`` the job runs on the reference simulator; naming a backend
    or passing an :class:`~repro.engine.config.ExecutionConfig` routes it
    through the engine with identical entries.  ``method="planned"``
    enables full cost-based planning under *objective* and defaults to
    the plan's resolved execution configuration.
    """
    spec = outer_product_spec(u, v, q, method=method, objective=objective)
    planned = planner.plan(spec)
    schema = planned.schema()
    masks = x2y_reducer_masks(schema)

    execution = resolve_execution(config, backend, num_workers)
    if execution is None and method == "planned":
        execution = planned.execution
    reduce_fn = partial(_outer_product_reduce, masks=masks)
    if execution is not None:
        result = planner.run(
            planned,
            (u.blocks, v.blocks),
            reduce_fn,
            config=execution,
        )
        return OuterProductRun(
            entries=tuple(result.outputs),
            schema=schema,
            metrics=result.metrics,
            shape=(u.dimension, v.dimension),
            engine=result.engine,
            plan=planned,
        )

    map_fn, size_of, wrapped = build_schema_plan(schema, (u.blocks, v.blocks))
    job = MapReduceJob(
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        size_of=size_of,
        reducer_capacity=q,
        strict_capacity=True,
    )
    result = job.run(wrapped)
    return OuterProductRun(
        entries=tuple(result.outputs),
        schema=schema,
        metrics=result.metrics,
        shape=(u.dimension, v.dimension),
        plan=planned,
    )
