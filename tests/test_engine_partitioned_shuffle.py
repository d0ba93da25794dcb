"""Tests for the partitioned shuffle: the parent's routing, the reduce
task contract, and stability of partition assignment across runs and
worker processes.

Reduce partition ``p`` holds a contiguous range of reducers, cut on the
prefix sums of the plan's loads, and its task returns its outputs in
reducer order, so the parent concatenates them.  Partition assignment —
and with it the per-task load metrics written to benchmark artifacts —
depends only on the plan and the partition count, so it is identical
across runs and across worker processes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.skew_join import schema_skew_join
from repro.core.instance import A2AInstance
from repro.core.selector import solve_a2a
from repro.engine.backends import ProcessBackend
from repro.engine.config import ExecutionConfig
from repro.engine import engine as engine_module
from repro.engine.engine import (
    ExecutionEngine,
    _run_routed_reduce_task,
    execute_schema,
)
from repro.engine.metrics import JobMetrics
from repro.engine.routing import SchemaPlan
from repro.exceptions import CapacityExceededError
from repro.workloads.relations import generate_join_workload

from oracle import compare_results, oracle_run

PROCESSES = ExecutionConfig(backend="processes")


def word_plan() -> SchemaPlan:
    """Three lines over the reducers of the words ``a``, ``b`` and ``c``."""
    return SchemaPlan.from_members(
        ["a b a", "b c", "c"], [3, 2, 1], [[0], [0, 1], [1, 2]], capacity=None
    )


def spy_on_tasks(monkeypatch) -> list:
    """Record every reduce task's payload as the engine dispatches it."""
    payloads = []

    def spy(payload, **kwargs):
        payloads.append(payload)
        return _run_routed_reduce_task(payload, **kwargs)

    monkeypatch.setattr(engine_module, "_run_routed_reduce_task", spy)
    return payloads


class TestMapTaskContract:
    def test_parent_routes_each_record_once_per_partition(
        self, monkeypatch
    ):
        payloads = spy_on_tasks(monkeypatch)
        result = ExecutionEngine(
            plan=word_plan(),
            reduce_fn=lambda key, values: [(key, len(values))],
            strict_capacity=False,
            config=ExecutionConfig(num_reduce_tasks=2),
        ).run()
        metrics = result.metrics
        # Line 0 is in reducers 0 and 1, line 1 in reducers 1 and 2, and
        # line 2 in reducer 2.
        assert metrics.map_input_records == 3
        assert metrics.map_output_pairs == 5
        assert metrics.communication_cost == 3 * 2 + 2 * 2 + 1 * 1
        # The loads are 3, 5 and 3: the cut nearest half of 11 ties
        # between after reducer 0 (3) and after reducer 1 (8) and takes
        # the earlier one, so partition 0 is reducer 0 and partition 1
        # reducers 1 and 2.  Line 0 ships to both partitions once each,
        # lines 1 and 2 to partition 1 only.
        assert result.engine.pairs_shipped == 4
        assert result.engine.task_loads == (3, 8)
        # Peak buffering is only measured in memory-budgeted runs.
        assert metrics.peak_buffered_pairs == 0
        assert result.engine.num_map_tasks == 0
        assert result.engine.encoded_bytes == 0
        assert payloads == [
            ([{0: (0, "a b a")}], (0, ((0,),))),
            (
                [{0: (0, "a b a"), 1: (1, "b c"), 2: (2, "c")}],
                (1, ((0, 1), (1, 2))),
            ),
        ]
        assert result.outputs == [(0, 1), (1, 2), (2, 2)]

    def test_reduce_task_merges_in_task_order(self):
        # Two sources for one partition (a flushed bucket, then the one
        # left in memory): each reducer's values come back in record
        # order whichever source held them.  The payload's range starts
        # at reducer 0 and holds reducers 0 and 1.
        slabs = [{2: (2, "c")}, {0: (0, "a b a"), 1: (1, "b c")}]
        result = _run_routed_reduce_task(
            (slabs, (0, ((0,), (2, 1)))),
            reduce_fn=lambda key, values: [(key, tuple(values))],
        )
        assert result.outputs == [
            (0, ((0, "a b a"),)),
            (1, ((1, "b c"), (2, "c"))),
        ]
        assert result.counters == {"keys": 2}

    def test_strict_overflow_raises_before_any_task(self, monkeypatch):
        # The plan knows every reducer's load, so an overloaded reducer
        # raises in the parent and no reduce task runs.
        payloads = spy_on_tasks(monkeypatch)
        engine = ExecutionEngine(
            plan=replace(word_plan(), capacity=4),
            reduce_fn=lambda key, values: [len(values)],
            config=ExecutionConfig(num_reduce_tasks=2),
        )
        with pytest.raises(CapacityExceededError) as raised:
            engine.run()
        assert (raised.value.key, raised.value.load) == (1, 5)
        assert payloads == []

    def test_reduce_task_numbers_its_range_from_its_first_reducer(self):
        # A range starting at reducer 4 over reducers 4 to 7: reducers 5
        # and 7 are empty, so they are neither reduced nor counted, and
        # the outputs come back flat, in reducer order.
        plan = word_plan()
        members_of_p = ((0, 1), (), (2,), ())
        calls = []

        def reduce_fn(key, values):
            calls.append(key)
            return [key] * len(values)

        bucket = dict(enumerate(plan.records))
        result = _run_routed_reduce_task(
            ([bucket], (4, members_of_p)), reduce_fn=reduce_fn
        )
        assert result.outputs == [4, 4, 6]
        assert calls == [4, 6]
        assert result.counters == {"keys": 2}


class TestReducerRanges:
    def test_ranges_are_contiguous_and_cover_every_reducer(self):
        plan = SchemaPlan.from_members(
            [f"rec{i}" for i in range(len(UNEVEN_SIZES))],
            UNEVEN_SIZES,
            UNEVEN_MEMBERS,
            capacity=10,
        )
        for partitions in (1, 2, 3, 5, 13, 20):
            routes, ranges = plan.routes(partitions)
            assert len(ranges) == partitions
            firsts = [first for first, _ in ranges]
            assert firsts == sorted(firsts)
            assert tuple(
                members for _, held in ranges for members in held
            ) == plan.members
            for first, held in ranges:
                assert held == plan.members[first : first + len(held)]
            for key, parts in routes.items():
                assert parts == [
                    p
                    for p, (_, held) in enumerate(ranges)
                    if any(key in members for members in held)
                ]

    def test_every_reducer_is_a_range_when_partitions_suffice(self):
        # With at least as many partitions as reducers, no range holds
        # two reducers, however uneven the loads.
        plan = SchemaPlan.from_members(
            ["a", "b", "c"], [1, 9, 1], [[0], [1], [2], [0, 2]], capacity=None
        )
        for partitions in (4, 6):
            _, ranges = plan.routes(partitions)
            assert ranges[:4] == [
                (0, ((0,),)), (1, ((1,),)), (2, ((2,),)), (3, ((0, 2),))
            ]
            assert all(held == () for _, held in ranges[4:])


def uneven_reduce(key, values):
    """0, 1, 3 or 1 outputs by ``key % 4``, so output counts vary per
    reducer and some reducers emit nothing."""
    for j in range((0, 1, 3, 1)[key % 4]):
        yield key, j, tuple(i for i, _ in values)


#: Thirteen reducers: reducers 1, 4, 8 and 11 are empty, and reducers 3,
#: 7 and 12 exceed the capacity 10.  On three partitions the ranges are
#: reducers 0-4, 5-8 and 9-12, so the overloaded reducers fall in all
#: three.
UNEVEN_SIZES = [3, 1, 4, 1, 5, 2, 6, 2]
UNEVEN_MEMBERS = [
    [0, 1],
    [],
    [1, 2, 3],
    [2, 4, 5],
    [],
    [0, 6],
    [3, 7],
    [4, 6],
    [],
    [5, 7, 1],
    [6],
    [],
    [0, 2, 4],
]


def uneven_engine(backend: str, budget: int | None, strict: bool):
    """The uneven plan at capacity 10 on three reduce partitions."""
    return ExecutionEngine(
        plan=SchemaPlan.from_members(
            [f"rec{i}" for i in range(len(UNEVEN_SIZES))],
            UNEVEN_SIZES,
            UNEVEN_MEMBERS,
            capacity=10,
        ),
        reduce_fn=uneven_reduce,
        strict_capacity=strict,
        config=ExecutionConfig(
            backend=backend,
            num_workers=2,
            num_reduce_tasks=3,
            memory_budget=budget,
        ),
    )


@pytest.mark.parametrize("budget", [None, 2])
@pytest.mark.parametrize("backend", ["serial", "processes"])
class TestReducerAlignedReassembly:
    """The parent concatenates the ranges' outputs: with empty reducers
    interleaved, per-reducer output counts of 0, 1 and 3, and overloaded
    reducers in every partition, the run equals the simulator's on every
    backend, spilled or not."""

    def test_non_strict_run_equals_the_oracle(self, backend, budget):
        engine = uneven_engine(backend, budget, strict=False)
        result = engine.run()
        report = compare_results(result, oracle_run(engine))
        assert report.ok, report.summary()
        assert result.metrics.capacity_violations == (3, 7, 12)
        assert result.engine.num_reduce_tasks == 3

    def test_strict_run_raises_the_oracles_error(self, backend, budget):
        engine = uneven_engine(backend, budget, strict=True)
        with pytest.raises(CapacityExceededError) as expected:
            oracle_run(engine)
        with pytest.raises(CapacityExceededError) as raised:
            engine.run()
        assert str(raised.value) == str(expected.value)
        assert (raised.value.key, raised.value.load, raised.value.capacity) == (
            3,
            11,
            10,
        )


class TestMetricsIndependentOfPartitions:
    def test_reducer_loads_are_listed_in_reducer_order(self):
        # Every reducer's load comes from the plan, in reducer order, so
        # the metrics (repr included) read the same on one partition and
        # on four.
        instance = A2AInstance([(i % 5) + 1 for i in range(20)], q=10)
        schema = solve_a2a(instance)
        records = [f"r{i}" for i in range(instance.m)]
        one, four = (
            execute_schema(
                schema,
                records,
                lambda key, values: [(key, len(values))],
                num_reduce_tasks=parts,
            ).metrics
            for parts in (1, 4)
        )
        assert list(four.reducer_loads) == sorted(four.reducer_loads)
        assert repr(four) == repr(one)


class TestCrossRunStability:
    """Partition assignment (and with it per-task load metrics) must be
    identical between independent runs and across worker processes."""

    @pytest.fixture(scope="class")
    def workload(self):
        return generate_join_workload(300, 300, 8, 1.3, seed=9)

    def test_processes_backend_twice_same_task_loads(self, workload):
        x, y = workload
        first = schema_skew_join(x, y, 80, config=PROCESSES)
        second = schema_skew_join(x, y, 80, config=PROCESSES)
        assert first.engine.task_loads == second.engine.task_loads
        assert first.engine.num_reduce_tasks == second.engine.num_reduce_tasks
        assert first.triples == second.triples
        assert first.metrics == second.metrics

    def test_serial_and_processes_agree_on_task_loads(self, workload):
        x, y = workload
        partitions = ExecutionConfig(num_reduce_tasks=8)
        inline = schema_skew_join(x, y, 80, config=partitions)
        processed = schema_skew_join(
            x, y, 80, config=replace(PROCESSES, num_reduce_tasks=8)
        )
        assert inline.engine.task_loads == processed.engine.task_loads
        assert inline.triples == processed.triples


class TestBackendPoolReuse:
    def test_pool_shared_inside_context(self):
        backend = ProcessBackend(max_workers=2)
        assert backend._pool is None
        with backend:
            pool = backend._pool
            assert pool is not None
            backend.run_tasks(str, [1, 2, 3])
            backend.run_tasks(str, [4])
            assert backend._pool is pool
        assert backend._pool is None

    def test_backend_usable_again_after_context(self):
        backend = ProcessBackend(max_workers=2)
        with backend:
            assert backend.run_tasks(str, [1]) == ["1"]
        with backend:
            assert backend.run_tasks(str, [2]) == ["2"]

    def test_process_pool_shared_inside_context(self):
        with ProcessBackend(max_workers=1) as backend:
            pool = backend._pool
            assert pool is not None
            assert backend.run_tasks(str, [1, 2]) == ["1", "2"]
            assert backend._pool is pool


@pytest.fixture(scope="module")
def process_backend():
    """One pre-built process pool shared by every generated example."""
    with ProcessBackend(max_workers=2) as backend:
        yield backend


@st.composite
def member_lists(draw):
    """``(sizes, members, capacity)``: reducers may be empty, inputs may
    belong to no reducer, members come in any order, and the capacity
    (or none) may leave reducers overloaded."""
    m = draw(st.integers(1, 9))
    sizes = draw(st.lists(st.integers(1, 8), min_size=m, max_size=m))
    members = draw(
        st.lists(
            st.lists(st.integers(0, m - 1), unique=True, max_size=m),
            min_size=1,
            max_size=10,
        )
    )
    capacity = draw(st.one_of(st.none(), st.integers(1, 30)))
    return sizes, members, capacity


def analytical(metrics: JobMetrics) -> JobMetrics:
    """*metrics* without the spill counters, which describe how a
    memory-budgeted run buffered its routed pairs, not the job."""
    return replace(metrics, spilled_bytes=0, spill_runs=0, peak_buffered_pairs=0)


class TestRangeLayoutProperties:
    """On generated member-list plans, the outputs and the job metrics do
    not depend on how the reducers are cut into ranges: every partition
    count, either backend, spilled or not, equals the simulator."""

    @settings(deadline=None, max_examples=50)
    @given(job=member_lists(), strict=st.booleans())
    def test_every_layout_equals_the_oracle(self, process_backend, job, strict):
        sizes, members, capacity = job
        engine = ExecutionEngine(
            plan=SchemaPlan.from_members(
                [f"rec{i}" for i in range(len(sizes))],
                sizes,
                members,
                capacity=capacity,
            ),
            reduce_fn=uneven_reduce,
            strict_capacity=strict,
        )
        try:
            oracle = oracle_run(engine)
        except CapacityExceededError as error:
            expected = error
        else:
            expected = None
        for partitions in (1, 2, 3, 7, len(members) + 2):
            for backend in ("serial", process_backend):
                for budget in (None, 1):
                    run = replace(
                        engine,
                        config=ExecutionConfig(
                            backend=backend,
                            num_reduce_tasks=partitions,
                            memory_budget=budget,
                        ),
                    )
                    if expected is not None:
                        with pytest.raises(CapacityExceededError) as raised:
                            run.run()
                        assert str(raised.value) == str(expected)
                        assert (raised.value.key, raised.value.load) == (
                            expected.key,
                            expected.load,
                        )
                        continue
                    result = run.run()
                    assert result.outputs == oracle.outputs
                    if budget is None:
                        assert repr(result.metrics) == repr(oracle.metrics)
                    else:
                        assert repr(analytical(result.metrics)) == repr(
                            oracle.metrics
                        )
                    assert result.engine.num_reduce_tasks <= partitions
                    assert sum(result.engine.task_loads) == sum(
                        result.metrics.reducer_loads.values()
                    )
