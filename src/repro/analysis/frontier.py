"""Pareto frontier of the capacity tradeoff: communication vs. makespan.

The paper's three tradeoffs pull in opposite directions: growing q cuts
communication (iii) but eventually strangles parallelism (ii).  For a
given workload and worker pool there is a *frontier* of capacities that
are not dominated on (communication cost, makespan); everything off the
frontier wastes one resource for no gain in the other.  This module
computes that frontier, which is how an operator would actually choose q.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.schedule import schedule_loads
from repro.core.instance import A2AInstance
from repro.core.selector import solve_a2a


@dataclass(frozen=True)
class FrontierPoint:
    """One capacity's outcome: its costs and whether it is Pareto-optimal."""

    q: int
    num_reducers: int
    communication_cost: int
    makespan: float
    pareto_optimal: bool

    def as_row(self) -> dict[str, object]:
        """Dict form for table rendering."""
        return {
            "q": self.q,
            "reducers": self.num_reducers,
            "comm_cost": self.communication_cost,
            "makespan": round(self.makespan, 1),
            "pareto": "*" if self.pareto_optimal else "",
        }


def capacity_frontier(
    sizes: Sequence[int],
    q_values: Sequence[int],
    num_workers: int,
    *,
    method: str = "auto",
) -> list[FrontierPoint]:
    """Evaluate each capacity and mark the Pareto-optimal ones.

    A point is Pareto-optimal iff no other swept capacity is at least as
    good on both communication cost and makespan and strictly better on
    one.  Returns points in the order of *q_values*.
    """
    raw: list[tuple[int, int, int, float]] = []
    for q in q_values:
        instance = A2AInstance(sizes, q)
        schema = solve_a2a(instance, method)
        schedule = schedule_loads(schema.loads, num_workers)
        raw.append((q, schema.num_reducers, schema.communication_cost, schedule.makespan))

    points = []
    for q, reducers, comm, makespan in raw:
        dominated = any(
            (other_comm <= comm and other_make <= makespan)
            and (other_comm < comm or other_make < makespan)
            for _, _, other_comm, other_make in raw
        )
        points.append(
            FrontierPoint(
                q=q,
                num_reducers=reducers,
                communication_cost=comm,
                makespan=makespan,
                pareto_optimal=not dominated,
            )
        )
    return points


def best_capacity(
    sizes: Sequence[int],
    q_values: Sequence[int],
    num_workers: int,
    *,
    comm_weight: float = 1.0,
    makespan_weight: float = 1.0,
    method: str = "auto",
) -> FrontierPoint:
    """Pick the swept capacity minimizing a weighted sum of the two costs.

    A convenience for callers who want one answer instead of a frontier;
    weights express the relative price of network versus wall-clock.
    """
    points = capacity_frontier(sizes, q_values, num_workers, method=method)
    return min(
        points,
        key=lambda p: comm_weight * p.communication_cost
        + makespan_weight * p.makespan,
    )
