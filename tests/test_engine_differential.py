"""Generated differential test: the engine against the simulator oracle.

Hypothesis draws a job — a mapping-schema problem (A2A, X2Y or multiway)
solved by one of the registered methods for its kind, or a plan built
straight from member lists (empty reducers, inputs in no reducer,
overloaded reducers, strict or not) — plus the payload type, the record
source (a list, or for A2A, multiway and member lists a streaming
``Dataset.from_factory``), the backend, the engine settings, the
injected faults (none, or seeded task crashes and transient failures
under a retry policy) and the instrumentation (none, a tracer, or a
profiling tracer), then checks that the engine's routed run equals
:class:`~repro.mapreduce.job.MapReduceJob`'s per-reducer run of the same
records and reduce function: the same outputs in the same order and the
same analytical :class:`~repro.mapreduce.metrics.JobMetrics`, or the same
:class:`~repro.exceptions.CapacityExceededError`.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.dataset import Dataset
from repro.engine.backends import ProcessBackend
from repro.engine.config import ExecutionConfig
from repro.engine.crossval import (
    compare_results,
    oracle_run,
    validate_against_simulator,
)
from repro.engine.engine import ExecutionEngine
from repro.engine.routing import SchemaPlan
from repro.exceptions import CapacityExceededError, ReproError
from repro.faults import FaultSpec, RetryPolicy
from repro.obs.trace import Tracer
from repro.planner import JobSpec
from repro.planner.planner import build_schema, method_registry

#: Exhaustive search is exponential; larger instances do not draw it.
EXACT_MAX_INPUTS = 6


@pytest.fixture(scope="module")
def process_backend():
    """One pre-built process pool shared by every example."""
    with ProcessBackend(max_workers=2) as backend:
        yield backend


def echo_reduce(key, values):
    """Emit the reducer id with every value it received, payloads included,
    so the outputs also check that each payload type survives the shuffle."""
    yield key, tuple(values)


PAYLOADS = {
    "str": lambda i: f"rec-{i}",
    "bytes": lambda i: bytes([i % 256]) * (i % 3 + 1),
    "tuple": lambda i: (i, f"t{i}", (i % 2, b"x")),
}


@st.composite
def specs(draw):
    """A feasible spec of a drawn kind."""
    kind = draw(st.sampled_from(["a2a", "x2y", "multiway"]))
    q = draw(st.integers(6, 30))
    if kind == "x2y":
        x_max = draw(st.integers(1, q - 1))
        xs = draw(st.lists(st.integers(1, x_max), min_size=1, max_size=7))
        ys = draw(st.lists(st.integers(1, q - x_max), min_size=1, max_size=7))
        return JobSpec.x2y(xs, ys, q)
    if kind == "multiway":
        sizes = draw(st.lists(st.integers(1, q // 3), min_size=1, max_size=8))
        return JobSpec.multiway(sizes, q, 3)
    sizes = draw(st.lists(st.integers(1, q // 2), min_size=1, max_size=10))
    return JobSpec.a2a(sizes, q)


def records_for(spec: JobSpec, payload, source: str):
    """Per-input records of *spec* (an ``(x, y)`` pair for X2Y).

    With *source* ``"factory"`` an A2A or multiway job's records come as
    a re-iterable streaming dataset, of known or unknown length, which
    the parent reads lazily as it routes (both executors iterate it).
    """
    if spec.kind == "x2y":
        return (
            [payload(i) for i in range(len(spec.x_sizes))],
            [payload(100 + j) for j in range(len(spec.y_sizes))],
        )
    return source_of([payload(i) for i in range(len(spec.sizes))], source)


def source_of(records: list, source: str):
    """*records* as the drawn *source*: the list itself, or a streaming
    factory of known or unknown length."""
    if source == "list":
        return records
    length = len(records) if source == "factory" else None
    return Dataset.from_factory(partial(iter, records), length=length)


#: Record sources: a list, or a streaming factory of known or unknown
#: length (X2Y always takes lists).
SOURCES = ["list", "factory", "factory-unsized"]


KNOBS = st.one_of(st.none(), st.integers(1, 6))

#: Seeded crashes and transient failures, each at most 20% per attempt.
#: An attempt then fails with probability at most 1 - 0.8**2 = 0.36, so a
#: task exhausts :data:`RETRY`'s 16 attempts with probability at most
#: 0.36**16 < 1e-7; worker kills stay with the chaos tests.
FAULTS = st.one_of(
    st.none(),
    st.builds(
        FaultSpec,
        crash=st.floats(0.0, 0.2),
        transient=st.floats(0.0, 0.2),
        seed=st.integers(0, 2**32 - 1),
    ),
)

RETRY = RetryPolicy(max_attempts=16, backoff_base=0.001, backoff_max=0.005)

#: Instrumentation to run under; a fresh tracer per example.
TRACERS = {
    "none": lambda: None,
    "traced": Tracer,
    "profiled": lambda: Tracer(profile=True),
}


def draw_run(data, process_backend) -> tuple[ExecutionConfig, Tracer | None]:
    """The backend, engine settings, faults and instrumentation of one
    example."""
    backend = data.draw(
        st.sampled_from(["serial", process_backend]),
        label="backend",
    )
    instrumentation = data.draw(
        st.sampled_from(sorted(TRACERS)), label="instrumentation"
    )
    faults = data.draw(FAULTS, label="faults")
    config = ExecutionConfig(
        backend=backend,
        num_workers=2,
        memory_budget=data.draw(KNOBS, label="memory_budget"),
        num_reduce_tasks=data.draw(KNOBS, label="num_reduce_tasks"),
        faults=faults,
        retry=RETRY if faults is not None else None,
    )
    return config, TRACERS[instrumentation]()


def check_task_spans(tracer: Tracer | None, num_tasks: int) -> None:
    """Every reduce task brings one span home, and the profile flag
    reaches every task, the pooled ones included: profiled tasks bring a
    function table home, traced ones none."""
    if tracer is None:
        return
    tasks = [s for s in tracer.spans() if s.name == "reduce_task"]
    assert len(tasks) == num_tasks
    assert all((s.functions is not None) == tracer.profile for s in tasks)


@settings(deadline=None)
@given(spec=specs(), data=st.data())
def test_engine_equals_simulator_on_generated_jobs(process_backend, spec, data):
    inputs = sum(len(s or ()) for s in (spec.sizes, spec.x_sizes, spec.y_sizes))
    methods = [
        m
        for m in sorted(method_registry(spec.kind))
        if m != "exact" or inputs <= EXACT_MAX_INPUTS
    ]
    method = data.draw(st.sampled_from(methods), label="method")
    try:
        schema = build_schema(spec, method)
    except ReproError:
        reject()  # the method does not apply to this instance
    payload = data.draw(st.sampled_from(sorted(PAYLOADS)), label="payload")
    source = data.draw(st.sampled_from(SOURCES), label="source")
    config, tracer = draw_run(data, process_backend)
    result, _, report = validate_against_simulator(
        schema,
        records_for(spec, PAYLOADS[payload], source),
        echo_reduce,
        config=config,
        tracer=tracer,
    )
    assert report.ok, report.summary()
    check_task_spans(tracer, result.engine.num_reduce_tasks)


@st.composite
def member_lists(draw):
    """``(sizes, members, capacity)`` for a member-list plan: reducers may
    be empty, inputs may belong to no reducer, members come in any order,
    and the capacity (or none) may leave reducers overloaded."""
    m = draw(st.integers(0, 10))
    sizes = draw(st.lists(st.integers(1, 8), min_size=m, max_size=m))
    members = draw(
        st.lists(
            st.lists(st.integers(0, m - 1), unique=True, max_size=m)
            if m
            else st.just([]),
            max_size=8,
        )
    )
    capacity = draw(st.one_of(st.none(), st.integers(1, 30)))
    return sizes, members, capacity


@settings(deadline=None)
@given(job=member_lists(), strict=st.booleans(), data=st.data())
def test_engine_equals_simulator_on_member_list_plans(
    process_backend, job, strict, data
):
    sizes, members, capacity = job
    payload = data.draw(st.sampled_from(sorted(PAYLOADS)), label="payload")
    source = data.draw(st.sampled_from(SOURCES), label="source")
    records = [PAYLOADS[payload](i) for i in range(len(sizes))]
    config, tracer = draw_run(data, process_backend)
    engine = ExecutionEngine(
        plan=SchemaPlan.from_members(
            source_of(records, source), sizes, members, capacity=capacity
        ),
        reduce_fn=echo_reduce,
        strict_capacity=strict,
        tracer=tracer,
        config=config,
    )
    try:
        oracle = oracle_run(engine)
    except CapacityExceededError as expected:
        with pytest.raises(CapacityExceededError) as raised:
            engine.run()
        assert (raised.value.key, raised.value.load, raised.value.capacity) == (
            expected.key,
            expected.load,
            expected.capacity,
        )
        assert str(raised.value) == str(expected)
        return
    result = engine.run()
    report = compare_results(result, oracle)
    assert report.ok, report.summary()
    check_task_spans(tracer, result.engine.num_reduce_tasks)
