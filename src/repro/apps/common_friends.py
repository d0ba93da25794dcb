"""Common-friends computation on the MapReduce engine.

The paper's social-network A2A example: for every pair of users, compute
the friends they share.  Friend lists are the different-sized inputs; the
mapping schema decides which reducers each user's list travels to, and
each reducer emits results only for the pairs it canonically owns.

Like the other applications, this is a thin spec builder over the
planner: :func:`common_friends_spec` states the problem, the planner
picks the schema, and the job runs on the engine through
:func:`repro.planner.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Iterator

from repro import planner
from repro.core.schema import A2ASchema
from repro.engine.config import ExecutionConfig
from repro.engine.metrics import EngineMetrics, JobMetrics
from repro.engine.routing import a2a_reducer_masks, owned_partners
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
        metrics: analytical job metrics of the run.
        engine: physical execution metrics of the run.
        plan: the planner's full decision record for this run.
    """

    pairs: tuple[tuple[int, int, frozenset[int]], ...]
    schema: A2ASchema
    metrics: JobMetrics
    engine: EngineMetrics
    plan: Plan

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
    :func:`a2a_reducer_masks`), decided by :func:`owned_partners` once per
    group of users with equal masks.  Module-level (data bound via
    :func:`functools.partial`) so the ``processes`` backend can pickle it.
    """
    held = [(masks[i], user) for i, user in sorted(values, key=itemgetter(0))]
    for user_a, partners in owned_partners(key, held):
        for user_b in partners:
            yield (user_a.user_id, user_b.user_id, common_friends(user_a, user_b))


def run_common_friends(
    users: list[User],
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
    config: ExecutionConfig | None = None,
) -> CommonFriendsRun:
    """Run the schema-driven common-friends job end to end.

    Users are indexed by list position; capacity is enforced strictly
    (a correct schema cannot overflow).  The job runs on the engine, on
    *config* when given and otherwise on the config
    :func:`repro.planner.run` resolves for this machine, whatever the
    *method*.  ``method="planned"`` enables full cost-based planning
    under *objective*.
    """
    spec = common_friends_spec(users, q, method=method, objective=objective)
    planned = planner.plan(spec)
    schema = planned.schema()
    masks = a2a_reducer_masks(schema)
    result = planner.run(
        planned,
        users,
        partial(_common_friends_reduce, masks=masks),
        config=config,
    )
    return CommonFriendsRun(
        pairs=tuple(result.outputs),
        schema=schema,
        metrics=result.metrics,
        engine=result.engine,
        plan=planned,
    )
