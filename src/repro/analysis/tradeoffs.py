"""Parameter sweeps for the paper's three tradeoffs.

Each sweep returns a list of row dicts ready for
:func:`repro.utils.tables.format_table`, so the benchmark harness and the
examples print identical tables.  The swept quantity is always the reducer
capacity ``q``, per the paper: (i) q vs. number of reducers, (ii) q vs.
parallelism (makespan on a finite cluster), (iii) q vs. communication cost.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.schedule import schedule_loads
from repro.core.bounds import (
    a2a_communication_lower_bound,
    a2a_reducer_lower_bound,
    x2y_reducer_lower_bound,
)
from repro.core.costs import summarize
from repro.core.instance import A2AInstance, X2YInstance
from repro.core.selector import A2A_METHODS, X2Y_METHODS, solve_a2a, solve_x2y
from repro.exceptions import ReproError


def sweep_a2a_reducers(
    sizes: Sequence[int],
    q_values: Sequence[int],
    methods: Sequence[str] = ("bin_pairing", "big_small", "greedy"),
) -> list[dict[str, object]]:
    """Tradeoff (i): reducer count per method as q grows, plus the lower bound.

    Methods that cannot run at some q (e.g. bin_pairing with big inputs)
    record ``None`` for that cell instead of failing the sweep.
    """
    rows = []
    for q in q_values:
        instance = A2AInstance(sizes, q)
        row: dict[str, object] = {
            "q": q,
            "lower_bound": a2a_reducer_lower_bound(instance),
        }
        for method in methods:
            try:
                schema = (
                    solve_a2a(instance) if method == "auto" else A2A_METHODS[method](instance)
                )
                row[method] = schema.num_reducers
            except ReproError:
                row[method] = None
        rows.append(row)
    return rows


def sweep_a2a_communication(
    sizes: Sequence[int],
    q_values: Sequence[int],
    method: str = "auto",
) -> list[dict[str, object]]:
    """Tradeoff (iii): communication cost and replication rate vs. q."""
    rows = []
    total = sum(sizes)
    for q in q_values:
        instance = A2AInstance(sizes, q)
        schema = solve_a2a(instance, method)
        cost = summarize(schema)
        rows.append(
            {
                "q": q,
                "num_reducers": cost.num_reducers,
                "comm_cost": cost.communication_cost,
                "comm_lower_bound": a2a_communication_lower_bound(instance),
                "replication_rate": round(cost.replication_rate, 3),
                "volume": total,
            }
        )
    return rows


def sweep_a2a_parallelism(
    sizes: Sequence[int],
    q_values: Sequence[int],
    num_workers: int,
    method: str = "auto",
) -> list[dict[str, object]]:
    """Tradeoff (ii): schedule each schema's reducer loads on a worker pool.

    Small q -> many light reducers -> high parallelism but high total work
    (communication); large q -> few heavy reducers that starve the pool.
    The makespan column exposes the knee between the two regimes.
    """
    rows = []
    for q in q_values:
        instance = A2AInstance(sizes, q)
        schema = solve_a2a(instance, method)
        schedule = schedule_loads(schema.loads, num_workers)
        rows.append(
            {
                "q": q,
                "num_reducers": schema.num_reducers,
                "comm_cost": schema.communication_cost,
                "makespan": round(schedule.makespan, 1),
                "waves": schedule.waves,
                "utilization": round(schedule.utilization, 3),
            }
        )
    return rows


def sweep_x2y_reducers(
    x_sizes: Sequence[int],
    y_sizes: Sequence[int],
    q_values: Sequence[int],
    methods: Sequence[str] = ("half_grid", "best_split_grid", "big_small"),
) -> list[dict[str, object]]:
    """X2Y version of tradeoff (i), with the cross-pair lower bound."""
    rows = []
    for q in q_values:
        instance = X2YInstance(x_sizes, y_sizes, q)
        row: dict[str, object] = {
            "q": q,
            "lower_bound": x2y_reducer_lower_bound(instance),
        }
        for method in methods:
            try:
                schema = (
                    solve_x2y(instance) if method == "auto" else X2Y_METHODS[method](instance)
                )
                row[method] = schema.num_reducers
            except ReproError:
                row[method] = None
        rows.append(row)
    return rows
