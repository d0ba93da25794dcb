"""Common-friends computation on the simulated MapReduce cluster.

The paper's social-network A2A example: for every pair of users, compute
the friends they share.  Friend lists are the different-sized inputs; the
mapping schema decides which reducers each user's list travels to, and
each reducer emits results only for the pairs it canonically owns.

Like the other applications, this is a thin spec builder over the
planner: :func:`common_friends_spec` states the problem, the planner
picks the schema, and the engine path funnels through
:func:`repro.planner.run` (the default path stays on the reference
simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

from repro import planner
from repro.core.schema import A2ASchema
from repro.engine.config import ExecutionConfig, resolve_execution
from repro.engine.metrics import EngineMetrics
from repro.engine.routing import a2a_reducer_masks, build_schema_plan
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.metrics import JobMetrics
from repro.planner import JobSpec, Plan
from repro.workloads.social import User, common_friends


@dataclass(frozen=True)
class CommonFriendsRun:
    """Result of a distributed common-friends computation.

    Attributes:
        pairs: ``(user_a, user_b, shared)`` for every user pair, exactly
            once, including pairs with no shared friends (the consumer
            decides what to drop — mirroring the problem statement where
            *every* pair corresponds to one output).
        schema: the mapping schema used.
        metrics: simulator metrics (engine runs report the identical
            analytical metrics).
        engine: physical execution metrics when the run went through the
            engine; ``None`` for simulator runs.
        plan: the planner's full decision record for this run.
    """

    pairs: tuple[tuple[int, int, frozenset[int]], ...]
    schema: A2ASchema
    metrics: JobMetrics
    engine: EngineMetrics | None = None
    plan: Plan | None = None

    def as_dict(self) -> dict[tuple[int, int], frozenset[int]]:
        """The output keyed by user-id pair, for ground-truth comparison."""
        return {(a, b): shared for a, b, shared in self.pairs}


def common_friends_spec(
    users: list[User],
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
) -> JobSpec:
    """The common-friends problem as a declarative A2A spec."""
    return JobSpec.a2a(
        users,
        q,
        method=None if method == "planned" else method,
        objective=objective,
    )


def _common_friends_reduce(
    key: int,
    values: list[tuple[int, User]],
    *,
    masks: tuple[int, ...],
) -> Iterator[tuple[int, int, frozenset[int]]]:
    """Reducer: emit the shared friends of the pairs this reducer owns.

    Values arrive as ``(input_index, user)``; reducer *key* owns a pair
    when no earlier reducer holds both (the bitmask rule of
    :func:`a2a_reducer_masks`).  Module-level (data bound via
    :func:`functools.partial`) so the ``processes`` backend can pickle it.
    """
    low = (1 << key) - 1
    by_position = sorted(values, key=lambda item: item[0])
    for a_pos, (i, user_a) in enumerate(by_position):
        earlier = masks[i] & low
        for j, user_b in by_position[a_pos + 1 :]:
            if earlier & masks[j]:
                continue
            yield (user_a.user_id, user_b.user_id, common_friends(user_a, user_b))


def run_common_friends(
    users: list[User],
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
    backend: str | None = None,
    num_workers: int | None = None,
    config: ExecutionConfig | None = None,
) -> CommonFriendsRun:
    """Run the schema-driven common-friends job end to end.

    Users are indexed by list position; capacity is enforced strictly
    (a correct schema cannot overflow).  With neither ``backend=`` nor
    ``config=`` the job runs on the reference simulator; naming a backend
    or passing an :class:`~repro.engine.config.ExecutionConfig` routes it
    through the engine with identical outputs.  ``method="planned"``
    enables full cost-based planning under *objective* and defaults to
    the plan's resolved execution configuration.
    """
    spec = common_friends_spec(users, q, method=method, objective=objective)
    planned = planner.plan(spec)
    schema = planned.schema()
    masks = a2a_reducer_masks(schema)

    execution = resolve_execution(config, backend, num_workers)
    if execution is None and method == "planned":
        execution = planned.execution
    reduce_fn = partial(_common_friends_reduce, masks=masks)
    if execution is not None:
        result = planner.run(
            planned,
            users,
            reduce_fn,
            config=execution,
        )
        return CommonFriendsRun(
            pairs=tuple(result.outputs),
            schema=schema,
            metrics=result.metrics,
            engine=result.engine,
            plan=planned,
        )

    map_fn, size_of, wrapped = build_schema_plan(schema, users)
    job = MapReduceJob(
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        size_of=size_of,
        reducer_capacity=q,
        strict_capacity=True,
    )
    result = job.run(wrapped)
    return CommonFriendsRun(
        pairs=tuple(result.outputs),
        schema=schema,
        metrics=result.metrics,
        plan=planned,
    )
