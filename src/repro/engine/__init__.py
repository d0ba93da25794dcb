"""Parallel execution engine: run mapping schemas on pluggable backends.

This package turns a solved :class:`~repro.core.schema.A2ASchema`,
:class:`~repro.core.schema.X2YSchema` or
:class:`~repro.core.multiway.MultiwaySchema` — or any
:class:`~repro.engine.routing.SchemaPlan`, the one job model, which an
app may also build from explicit member lists — into an actually-executed
MapReduce job: every reducer receives exactly the records of the inputs
the plan assigns to it, the parent routes each record once to each
reduce task holding one of its reducers (a schema-routed shuffle with no
map tasks), and the reduce tasks run on a pluggable backend (``serial``,
the planner's choice for every job, or ``processes`` when a caller names
it).  Every backend produces the same outputs and the same
:class:`~repro.engine.metrics.JobMetrics` (the paper's analytical
quantities); the test suite checks the serial backend against a
reference MapReduce simulator, and the process backend against serial.
Past a ``memory_budget``, routed records spill to disk as one pickled
record table per partition and flush (:mod:`repro.engine.spill`).

Quickstart::

    from repro import A2AInstance, solve_a2a
    from repro.engine import execute_schema

    instance = A2AInstance(sizes=[3, 5, 2, 7, 4], q=12)
    schema = solve_a2a(instance).require_valid()
    records = ["payload-%d" % i for i in range(instance.m)]

    def reduce_fn(reducer, values):   # values are (input_index, record)
        yield reducer, sorted(i for i, _ in values)

    result = execute_schema(schema, records, reduce_fn)  # or backend="processes"
    print(result.outputs, result.engine.as_row())
"""

from repro.engine.backends import (
    BACKENDS,
    Backend,
    ProcessBackend,
    SerialBackend,
    available_workers,
    get_backend,
)
from repro.engine.config import ExecutionConfig
from repro.engine.engine import EngineResult, ExecutionEngine, execute_schema
from repro.engine.metrics import EngineMetrics, JobMetrics, PhaseTimings
from repro.engine.routing import (
    SchemaPlan,
    a2a_memberships,
    a2a_reducer_masks,
    canonical_meeting,
    owned_partners,
    x2y_exact_cover,
    x2y_memberships,
    x2y_reducer_masks,
)

__all__ = [
    "ExecutionEngine",
    "SchemaPlan",
    "ExecutionConfig",
    "EngineResult",
    "execute_schema",
    "Backend",
    "SerialBackend",
    "ProcessBackend",
    "BACKENDS",
    "get_backend",
    "available_workers",
    "EngineMetrics",
    "JobMetrics",
    "PhaseTimings",
    "a2a_memberships",
    "a2a_reducer_masks",
    "x2y_memberships",
    "x2y_reducer_masks",
    "x2y_exact_cover",
    "canonical_meeting",
    "owned_partners",
]
