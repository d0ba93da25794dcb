"""Tests for the partitioned shuffle: hash fast paths, mapper-side
pre-partitioning, and cross-process stability of partition assignment.

The new `stable_hash` fast paths are *not* required to reproduce the old
repr-CRC32 values — what matters is that partition assignment is stable
across runs and across worker processes, which is what pins per-task load
metrics in benchmark artifacts.
"""

from __future__ import annotations

import pytest

from repro.apps.skew_join import schema_skew_join
from repro.engine.backends import ProcessBackend, ThreadBackend
from repro.engine.config import ExecutionConfig
from repro.engine.engine import _run_map_task, _run_reduce_task
from repro.exceptions import InvalidInstanceError
from repro.mapreduce.shuffle import (
    hash_partition,
    partition_groups,
    stable_hash,
)
from repro.mapreduce.types import default_size
from repro.workloads.relations import generate_join_workload

KEYS = [
    0,
    1,
    -17,
    10**12,
    True,
    False,
    "",
    "word",
    "unicode-é中",
    b"raw-bytes",
    ("light", 7),
    ("hh", 3, 12),
    ("nested", ("a", 1)),
    (),
    3.25,
    None,
    frozenset({1, 2}),
]

PROCESSES = ExecutionConfig(backend="processes")


class TestStableHash:
    def test_returns_nonnegative_ints(self):
        for key in KEYS:
            value = stable_hash(key)
            assert isinstance(value, int) and value >= 0, key

    def test_stable_within_process(self):
        assert [stable_hash(k) for k in KEYS] == [stable_hash(k) for k in KEYS]

    def test_stable_across_processes(self):
        local = [stable_hash(k) for k in KEYS]
        remote = ProcessBackend(max_workers=1).run_tasks(stable_hash, KEYS)
        assert remote == local

    def test_tuple_hash_depends_on_elements_and_length(self):
        assert stable_hash(("a", 1)) != stable_hash(("a", 2))
        assert stable_hash((1,)) != stable_hash((1, 1))
        assert stable_hash(()) != stable_hash((0,))

    def test_distinct_strings_spread(self):
        values = {stable_hash(f"key-{i}") for i in range(200)}
        assert len(values) == 200

    def test_equal_keys_hash_equal_across_types(self):
        # The hash/equality contract: 1 == 1.0 == True, so all three must
        # land in the same reduce partition or the partitioned shuffle
        # would reduce "the same" key in two tasks.
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
        assert stable_hash(0) == stable_hash(0.0) == stable_hash(False)
        assert stable_hash(-7) == stable_hash(-7.0)
        assert stable_hash(("a", 1)) == stable_hash(("a", 1.0))

    def test_mixed_numeric_key_types_match_simulator(self):
        """Equal keys emitted with different numeric types must merge into
        one reducer on every backend, exactly as the simulator's dict does."""
        from repro.engine.config import ExecutionConfig
        from repro.engine.engine import ExecutionEngine
        from repro.mapreduce.job import MapReduceJob

        records = list(range(8))
        reference = MapReduceJob(map_fn=int_float_map, reduce_fn=sum_reduce).run(
            records
        )
        for backend in ("serial", "threads", "processes"):
            result = ExecutionEngine(
                map_fn=int_float_map,
                reduce_fn=sum_reduce,
                config=ExecutionConfig(
                    backend=backend, map_chunk_size=2, num_reduce_tasks=3
                ),
            ).run(records)
            assert result.outputs == reference.outputs, backend
            assert result.metrics == reference.metrics, backend


class TestPartitionGroups:
    def test_single_partition_passthrough(self):
        groups = {"a": [1], "b": [2]}
        assert partition_groups(groups, 1) == [groups]

    def test_every_key_lands_exactly_once(self):
        groups = {f"k{i}": [i] for i in range(50)}
        buckets = partition_groups(groups, 7)
        assert len(buckets) == 7
        seen = [key for bucket in buckets for key in bucket]
        assert sorted(seen) == sorted(groups)
        for bucket in buckets:
            for key, values in bucket.items():
                assert values is groups[key]

    def test_agrees_with_hash_partition(self):
        keys = [f"k{i}" for i in range(50)]
        groups = {key: [1] for key in keys}
        by_groups = partition_groups(groups, 5)
        by_keys = hash_partition(keys, 5)
        assert [sorted(b) for b in by_groups] == [sorted(b) for b in by_keys]

    def test_rejects_nonpositive_partition_count(self):
        with pytest.raises(InvalidInstanceError):
            partition_groups({}, 0)


def word_map(record: str):
    for word in record.split():
        yield word, 1


def int_float_map(record: int):
    """Emit the same logical key alternately as int and float."""
    key = record % 2
    yield (key if record % 4 < 2 else float(key)), 1


def sum_reduce(key, values):
    yield key, sum(values)


class TestMapTaskContract:
    def test_map_task_buckets_pairs_and_accounts(self):
        chunk = ["a b a", "b c"]
        result = _run_map_task(
            chunk,
            map_fn=word_map,
            combiner_fn=None,
            size_of=default_size,
            num_partitions=4,
        )
        counters = result.counters
        assert counters["pairs"] == 5
        assert counters["comm"] == 5
        assert counters["records"] == 2
        # Peak buffering is only measured in memory-budgeted runs.
        assert counters["peak_buffered"] == 0
        assert result.spill is None
        assert counters["encoded_bytes"] == 0
        assert counters["encode_seconds"] == 0.0
        assert result.loads == []
        assert result.span is None
        buckets = result.outputs
        assert len(buckets) == 4
        merged = {}
        for bucket in buckets:
            merged.update(bucket)
        assert merged == {"a": [1, 1], "b": [1, 1], "c": [1]}
        # Keys land where stable_hash says they do.
        for p, bucket in enumerate(buckets):
            for key in bucket:
                assert stable_hash(key) % 4 == p

    def test_reduce_task_merges_in_task_order(self):
        slabs = [{"a": [1, 2]}, {"a": [3], "b": [4]}]
        result = _run_reduce_task(
            slabs,
            reduce_fn=lambda key, values: [tuple(values)],
            size_of=default_size,
            capacity=None,
            strict=True,
        )
        assert result.outputs == [("a", [(1, 2, 3)]), ("b", [(4,)])]
        assert result.loads == [("a", 3), ("b", 1)]
        assert result.counters["keys"] == 2
        assert result.counters["decode_seconds"] == 0.0

    def test_reduce_task_skips_reducing_on_strict_overflow(self):
        result = _run_reduce_task(
            [{"a": [1, 1, 1]}],
            reduce_fn=lambda key, values: [sum(values)],
            size_of=default_size,
            capacity=2,
            strict=True,
        )
        assert result.outputs is None
        assert result.loads == [("a", 3)]


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
