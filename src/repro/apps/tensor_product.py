"""Distributed outer (tensor) product on the MapReduce engine.

The paper's third X2Y example: for block-partitioned vectors ``u`` and
``v``, every (u-block, v-block) pair must meet to produce its tile of the
outer-product matrix ``u v^T``.  Blocks of different sizes are exactly the
different-sized inputs the schema machinery handles.

A thin spec builder over the planner: :func:`outer_product_spec` states
the problem, the planner picks the schema, and the job runs on the
engine through :func:`repro.planner.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator

from repro import planner
from repro.core.schema import X2YSchema
from repro.engine.config import ExecutionConfig
from repro.engine.metrics import EngineMetrics, JobMetrics
from repro.engine.routing import owned_partners, x2y_exact_cover, x2y_reducer_masks
from repro.planner import JobSpec, Plan
from repro.workloads.vectors import BlockVector, VectorBlock


@dataclass(frozen=True)
class OuterProductRun:
    """Result of a distributed outer product.

    Attributes:
        entries: ``(row, col, value)`` triples covering the whole matrix,
            each exactly once.
        schema: the X2Y mapping schema used.
        metrics: analytical job metrics of the run.
        shape: ``(len(u), len(v))`` of the full matrix.
        engine: physical execution metrics of the run.
        plan: the planner's full decision record for this run.
    """

    entries: tuple[tuple[int, int, float], ...]
    schema: X2YSchema
    metrics: JobMetrics
    shape: tuple[int, int]
    engine: EngineMetrics
    plan: Plan

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
    masks: tuple[tuple[int, ...], tuple[int, ...]] | None,
) -> Iterator[tuple[int, int, float]]:
    """Reducer: emit the tiles of the block pairs this reducer owns.

    Values arrive as ``(side, input_index, block)`` with side ``"x"`` for
    u-blocks and ``"y"`` for v-blocks.  With *masks* ``None`` the schema
    holds each pair once (:func:`x2y_exact_cover`), so the reducer owns
    every pair it holds.  Otherwise reducer *key* owns a pair when no
    earlier reducer holds both (the bitmask rule of
    :func:`x2y_reducer_masks`), decided by :func:`owned_partners` once per
    pair of groups of blocks with equal masks; on a schema that holds
    each pair once it yields the same pairs in the same order.
    Module-level so the ``processes`` backend can pickle it.
    """
    if masks is None:
        v_blocks = [block for side, _, block in values if side == "y"]
        owned: Iterable[tuple[VectorBlock, list[VectorBlock]]] = [
            (block, v_blocks) for side, _, block in values if side == "x"
        ]
    else:
        x_masks, y_masks = masks
        owned = owned_partners(
            key,
            [(x_masks[i], block) for side, i, block in values if side == "x"],
            across=[(y_masks[j], block) for side, j, block in values if side == "y"],
        )
    for ub, partners in owned:
        for vb in partners:
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
    config: ExecutionConfig | None = None,
) -> OuterProductRun:
    """Compute ``u v^T`` with an X2Y mapping schema.

    Block sizes define the instance; each reducer computes the tiles of the
    (u-block, v-block) pairs it canonically owns.  Capacity is strict — a
    correct schema cannot overflow.  The job runs on the engine, on
    *config* when given and on the serial backend otherwise.
    ``method="planned"``
    enables full cost-based planning under *objective* and defaults to
    the plan's resolved execution configuration.
    """
    spec = outer_product_spec(u, v, q, method=method, objective=objective)
    planned = planner.plan(spec)
    schema = planned.schema()
    masks = None if x2y_exact_cover(schema) else x2y_reducer_masks(schema)

    if config is None and method != "planned":
        config = ExecutionConfig()
    result = planner.run(
        planned,
        (u.blocks, v.blocks),
        partial(_outer_product_reduce, masks=masks),
        config=config,
    )
    return OuterProductRun(
        entries=tuple(result.outputs),
        schema=schema,
        metrics=result.metrics,
        shape=(u.dimension, v.dimension),
        engine=result.engine,
        plan=planned,
    )
