"""Cost metrics over mapping schemas.

The paper frames three tradeoffs against the reducer capacity ``q``:
(i) number of reducers, (ii) parallelism, (iii) communication cost.  This
module computes all three (plus replication rate, the standard normalized
form of communication cost) from a schema, so every experiment reports the
same metric definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from statistics import mean, pstdev

from repro.core.schema import A2ASchema, X2YSchema


@dataclass(frozen=True)
class CostSummary:
    """All tradeoff metrics for one schema.

    Attributes:
        algorithm: name of the producing algorithm.
        num_reducers: reducer count (primary minimization target).
        communication_cost: total size shipped map -> reduce.
        replication_rate: communication cost / total input size; the average
            number of copies made of each size unit.
        max_load: largest reducer load (q bounds it; lower = more parallel
            headroom per reducer).
        mean_load: average reducer load.
        load_stdev: population standard deviation of loads (balance).
        capacity_utilization: mean load / q, in [0, 1].
    """

    algorithm: str
    num_reducers: int
    communication_cost: int
    replication_rate: float
    max_load: int
    mean_load: float
    load_stdev: float
    capacity_utilization: float

    def as_row(self) -> dict[str, object]:
        """Dict form for table rendering."""
        return asdict(self)


def summarize(schema: A2ASchema | X2YSchema) -> CostSummary:
    """Compute the :class:`CostSummary` of a schema (A2A or X2Y)."""
    loads = schema.loads
    total = schema.instance.total_size
    q = schema.instance.q
    num = schema.num_reducers
    comm = schema.communication_cost
    return CostSummary(
        algorithm=schema.algorithm,
        num_reducers=num,
        communication_cost=comm,
        replication_rate=comm / total if total else 0.0,
        max_load=schema.max_load,
        mean_load=mean(loads) if loads else 0.0,
        load_stdev=pstdev(loads) if loads else 0.0,
        capacity_utilization=(mean(loads) / q) if loads else 0.0,
    )


def parallelism_degree(schema: A2ASchema | X2YSchema) -> int:
    """Degree of parallelism: the number of reducers that can run at once.

    In the paper's model every reducer is an independent unit of work, so
    the schema's reducer count *is* the available parallelism;
    :func:`repro.analysis.schedule_loads` turns the reducer loads into a
    makespan for a finite worker pool.
    """
    return schema.num_reducers


def skew(schema: A2ASchema | X2YSchema) -> float:
    """Load skew: max load / mean load (1.0 = perfectly balanced)."""
    loads = schema.loads
    if not loads:
        return 0.0
    average = mean(loads)
    return (max(loads) / average) if average else 0.0
