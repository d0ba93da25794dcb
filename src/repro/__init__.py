"""repro: reproduction of "Assignment of Different-Sized Inputs in MapReduce".

Afrati, Dolev, Korach, Sharma, Ullman (EDBT 2015 / DISC 2014 BA /
arXiv:1501.06758).  The library implements the paper's two mapping-schema
problems (A2A and X2Y), the assignment algorithms and lower bounds, a
capacity-checked parallel MapReduce engine, workload generators, and the
three motivating applications (similarity join, skew join, tensor
product).

Quickstart::

    from repro import A2AInstance, solve_a2a

    instance = A2AInstance(sizes=[3, 5, 2, 7, 4], q=12)
    schema = solve_a2a(instance)          # picks an algorithm automatically
    schema.require_valid()                # capacity + all-pairs coverage
    print(schema.num_reducers, schema.communication_cost)
"""

from repro.core import (
    A2A_METHODS,
    A2AInstance,
    A2ASchema,
    CostSummary,
    VerificationReport,
    X2Y_METHODS,
    X2YInstance,
    X2YSchema,
    parallelism_degree,
    skew,
    solve_a2a,
    solve_x2y,
    summarize,
)
from repro.dataset import Dataset, as_dataset
from repro.engine import (
    BACKENDS,
    EngineMetrics,
    EngineResult,
    ExecutionConfig,
    ExecutionEngine,
    execute_schema,
)
from repro.exceptions import (
    AdmissionError,
    CapacityExceededError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvalidSchemaError,
    JobCancelledError,
    ReproError,
    ResultEvictedError,
    SolverLimitError,
    SpillError,
)
from repro.analysis.schedule import schedule_loads
from repro.planner import Environment, JobSpec, Plan
from repro.service import JobHandle, JobResult, JobService

__version__ = "1.0.0"

__all__ = [
    "A2AInstance",
    "X2YInstance",
    "A2ASchema",
    "X2YSchema",
    "solve_a2a",
    "solve_x2y",
    "A2A_METHODS",
    "X2Y_METHODS",
    "summarize",
    "CostSummary",
    "VerificationReport",
    "parallelism_degree",
    "skew",
    "schedule_loads",
    "ExecutionEngine",
    "ExecutionConfig",
    "EngineResult",
    "EngineMetrics",
    "execute_schema",
    "BACKENDS",
    "Dataset",
    "as_dataset",
    "JobSpec",
    "Plan",
    "Environment",
    "JobService",
    "JobHandle",
    "JobResult",
    "ReproError",
    "InvalidInstanceError",
    "InfeasibleInstanceError",
    "InvalidSchemaError",
    "CapacityExceededError",
    "AdmissionError",
    "JobCancelledError",
    "ResultEvictedError",
    "SolverLimitError",
    "SpillError",
    "__version__",
]
