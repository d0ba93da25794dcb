"""Tests for the partitioned shuffle: the map and reduce task contract,
and stability of partition assignment across runs and worker processes.

Reducer ``r`` lives in reduce partition ``r % partitions``, so partition
assignment — and with it the per-task load metrics written to benchmark
artifacts — is identical across runs and across worker processes.
"""

from __future__ import annotations

import pytest

from repro.apps.skew_join import schema_skew_join
from repro.engine.backends import ProcessBackend, ThreadBackend
from repro.engine.config import ExecutionConfig
from repro.engine.engine import _run_routed_map_task, _run_routed_reduce_task
from repro.engine.routing import SchemaPlan
from repro.workloads.relations import generate_join_workload

PROCESSES = ExecutionConfig(backend="processes")


def word_plan() -> SchemaPlan:
    """Three lines over the reducers of the words ``a``, ``b`` and ``c``."""
    return SchemaPlan.from_members(
        ["a b a", "b c", "c"], [3, 2, 1], [[0], [0, 1], [1, 2]], capacity=None
    )


class TestMapTaskContract:
    def test_map_task_buckets_pairs_and_accounts(self):
        plan = word_plan()
        routes, _ = plan.routes(2)
        result = _run_routed_map_task(
            plan.records[:2],
            routes=routes,
            key_of=plan.key_of,
            num_partitions=2,
        )
        counters = result.counters
        # Line 0 is in reducers 0 and 1, line 1 in reducers 1 and 2.
        assert counters["pairs"] == 4
        assert counters["comm"] == 3 * 2 + 2 * 2
        assert counters["records"] == 2
        # Line 0 ships to partitions 0 and 1 once each; line 1's reducers
        # 1 and 2 sit in partitions 1 and 0.
        assert counters["shipped"] == 4
        # Peak buffering is only measured in memory-budgeted runs.
        assert counters["peak_buffered"] == 0
        assert result.spill is None
        assert counters["encoded_bytes"] == 0
        assert counters["encode_seconds"] == 0.0
        assert result.loads == []
        assert result.span is None
        assert result.outputs == [
            {0: (0, "a b a"), 1: (1, "b c")},
            {0: (0, "a b a"), 1: (1, "b c")},
        ]

    def test_reduce_task_merges_in_task_order(self):
        # Two map tasks' buckets for one partition: each reducer's values
        # come back in record order whichever task shipped them.
        slabs = [{2: (2, "c")}, {0: (0, "a b a"), 1: (1, "b c")}]
        result = _run_routed_reduce_task(
            (slabs, [(0, (0,)), (2, (2, 1))]),
            reduce_fn=lambda key, values: [tuple(values)],
            sizes={0: 3, 1: 2, 2: 1},
            capacity=None,
            strict=True,
        )
        assert result.outputs == [
            (0, [((0, "a b a"),)]),
            (2, [((1, "b c"), (2, "c"))]),
        ]
        assert result.loads == [(0, 3), (2, 3)]
        assert result.counters["keys"] == 2
        assert result.counters["decode_seconds"] == 0.0

    def test_reduce_task_skips_reducing_on_strict_overflow(self):
        result = _run_routed_reduce_task(
            ([{0: (0, "a b a"), 1: (1, "b c")}], [(1, (0, 1))]),
            reduce_fn=lambda key, values: [len(values)],
            sizes={0: 3, 1: 2},
            capacity=2,
            strict=True,
        )
        assert result.outputs is None
        assert result.loads == [(1, 5)]


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

    def test_threads_and_processes_agree_on_task_loads(self, workload):
        x, y = workload
        threaded = schema_skew_join(
            x, y, 80, config=ExecutionConfig(backend="threads")
        )
        processed = schema_skew_join(x, y, 80, config=PROCESSES)
        assert threaded.engine.task_loads == processed.engine.task_loads
        assert threaded.triples == processed.triples


class TestBackendPoolReuse:
    def test_thread_pool_shared_inside_context(self):
        backend = ThreadBackend(max_workers=2)
        assert backend._pool is None
        with backend:
            pool = backend._pool
            assert pool is not None
            backend.run_tasks(str, [1, 2, 3])
            backend.run_tasks(str, [4])
            assert backend._pool is pool
        assert backend._pool is None

    def test_backend_usable_again_after_context(self):
        backend = ThreadBackend(max_workers=2)
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
