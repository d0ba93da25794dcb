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
``threads``, ``processes``).  The serial backend is validated to be
byte-identical to the reference simulator (:mod:`repro.mapreduce`); the
parallel backends translate schema quality into wall-clock speedups.
Spill runs on disk use the block format of :mod:`repro.engine.codec`.

Quickstart::

    from repro import A2AInstance, solve_a2a
    from repro.engine import execute_schema

    instance = A2AInstance(sizes=[3, 5, 2, 7, 4], q=12)
    schema = solve_a2a(instance).require_valid()
    records = ["payload-%d" % i for i in range(instance.m)]

    def reduce_fn(reducer, values):   # values are (input_index, record)
        yield reducer, sorted(i for i, _ in values)

    result = execute_schema(schema, records, reduce_fn, backend="threads")
    print(result.outputs, result.engine.as_row())
"""

from repro.engine.backends import (
    BACKENDS,
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_workers,
    get_backend,
)
from repro.engine.codec import decode_block, encode_items
from repro.engine.config import ExecutionConfig
from repro.engine.crossval import (
    CrossValidationReport,
    compare_results,
    validate_against_simulator,
)
from repro.engine.engine import EngineResult, ExecutionEngine, execute_schema
from repro.engine.metrics import EngineMetrics, PhaseTimings
from repro.engine.routing import (
    SchemaPlan,
    a2a_memberships,
    a2a_reducer_masks,
    canonical_meeting,
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
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "get_backend",
    "available_workers",
    "EngineMetrics",
    "PhaseTimings",
    "encode_items",
    "decode_block",
    "CrossValidationReport",
    "compare_results",
    "validate_against_simulator",
    "a2a_memberships",
    "a2a_reducer_masks",
    "x2y_memberships",
    "x2y_reducer_masks",
    "canonical_meeting",
]
