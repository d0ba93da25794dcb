"""Tests for the partitioned shuffle: the parent's routing, the reduce
task contract, and stability of partition assignment across runs and
worker processes.

Reducer ``r`` lives in reduce partition ``r % partitions``, so partition
assignment — and with it the per-task load metrics written to benchmark
artifacts — is identical across runs and across worker processes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

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


class TestMapTaskContract:
    def test_parent_routes_each_record_once_per_partition(
        self, monkeypatch
    ):
        payloads = []

        def spy(payload, **kwargs):
            payloads.append(payload)
            return _run_routed_reduce_task(payload, **kwargs)

        monkeypatch.setattr(engine_module, "_run_routed_reduce_task", spy)
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
        # Reducers 0 and 2 sit in partition 0, reducer 1 in partition 1:
        # line 0 ships to both partitions once each, line 1 too, line 2
        # to partition 0 only.
        assert result.engine.pairs_shipped == 5
        # Peak buffering is only measured in memory-budgeted runs.
        assert metrics.peak_buffered_pairs == 0
        assert result.engine.num_map_tasks == 0
        assert result.engine.encoded_bytes == 0
        assert payloads == [
            (
                [{0: (0, "a b a"), 1: (1, "b c"), 2: (2, "c")}],
                (0, 2, ((0,), (1, 2))),
            ),
            ([{0: (0, "a b a"), 1: (1, "b c")}], (1, 2, ((0, 1),))),
        ]

    def test_reduce_task_merges_in_task_order(self):
        # Two sources for one partition (a flushed bucket, then the one
        # left in memory): each reducer's values come back in record
        # order whichever source held them.  The payload's slice (first
        # 0, step 2) holds reducers 0 and 2.
        slabs = [{2: (2, "c")}, {0: (0, "a b a"), 1: (1, "b c")}]
        result = _run_routed_reduce_task(
            (slabs, (0, 2, ((0,), (2, 1)))),
            reduce_fn=lambda key, values: [(key, tuple(values))],
            sizes={0: 3, 1: 2, 2: 1},
            capacity=None,
            strict=True,
        )
        assert result.outputs == (
            [
                (0, ((0, "a b a"),)),
                (2, ((1, "b c"), (2, "c"))),
            ],
            [1, 1],
        )
        assert result.loads == [3, 3]
        assert result.counters == {"keys": 2}

    def test_reduce_task_skips_reducing_on_strict_overflow(self):
        result = _run_routed_reduce_task(
            ([{0: (0, "a b a"), 1: (1, "b c")}], (1, 2, ((0, 1),))),
            reduce_fn=lambda key, values: [len(values)],
            sizes={0: 3, 1: 2},
            capacity=2,
            strict=True,
        )
        assert result.outputs is None
        assert result.loads == [5]

    def test_reduce_results_are_aligned_to_the_members_slice(self):
        # Partition 1 of 3 over reducers 1, 4, 7, 10: reducers 4 and 10
        # are empty but keep their slots, with load 0 and no outputs.
        plan = word_plan()
        members_of_p = ((0, 1), (), (2,), ())
        calls = []

        def reduce_fn(key, values):
            calls.append(key)
            return [key] * len(values)

        bucket = dict(enumerate(plan.records))
        result = _run_routed_reduce_task(
            ([bucket], (1, 3, members_of_p)),
            reduce_fn=reduce_fn,
            sizes=plan.sizes,
            capacity=None,
            strict=True,
        )
        assert isinstance(result.loads, list)
        assert len(result.loads) == len(members_of_p)
        assert all(type(load) is int for load in result.loads)
        assert result.loads == [5, 0, 1, 0]
        flat, counts = result.outputs
        assert counts == [2, 0, 1, 0]
        assert flat == [1, 1, 7]
        assert calls == [1, 7]
        assert result.counters["keys"] == 2


def uneven_reduce(key, values):
    """0, 1, 3 or 1 outputs by ``key % 4``, so output counts vary per
    reducer and some reducers emit nothing."""
    for j in range((0, 1, 3, 1)[key % 4]):
        yield key, j, tuple(i for i, _ in values)


#: Thirteen reducers over three partitions (``r % 3``): reducers 1, 4, 8
#: and 11 are empty, and reducers 3 and 12 (partition 0) and 7
#: (partition 1) exceed the capacity 10.
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
    """The parent rebuilds outputs and loads from reducer-aligned task
    results: with empty reducers interleaved, per-reducer output counts
    of 0, 1 and 3, and overloaded reducers in two partitions, the run
    equals the simulator's on every backend, spilled or not."""

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
        # The post-pass takes each reducer's load from its partition in
        # the reducer-order walk, so the metrics (repr included) read the
        # same on one partition and on four.
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
