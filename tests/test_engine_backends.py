"""Unit tests for the engine's pluggable backends.

Map/reduce functions used with the ``processes`` backend are module-level
so they survive pickling — the same discipline the apps follow.
"""

from __future__ import annotations

import pytest

from repro.engine.backends import (
    BACKENDS,
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_workers,
    get_backend,
)
from repro.engine.config import ExecutionConfig
from repro.engine.engine import ExecutionEngine
from repro.exceptions import CapacityExceededError
from repro.mapreduce.job import MapReduceJob


def word_map(record: str):
    """Emit (word, 1) per word — the classic word count mapper."""
    for word in record.split():
        yield word, 1


def word_reduce(key, values):
    """Sum a word's counts."""
    yield key, sum(values)


def count_combiner(key, values):
    """Mapper-side pre-aggregation of counts."""
    yield sum(values)


RECORDS = [
    "the quick brown fox",
    "the lazy dog",
    "the quick dog jumps",
    "a brown dog",
    "fox and dog and fox",
]


class TestBackendRegistry:
    def test_registry_names(self):
        assert sorted(BACKENDS) == ["processes", "serial", "threads"]

    def test_get_backend_by_name(self):
        backend = get_backend("threads", max_workers=3)
        assert isinstance(backend, ThreadBackend)
        assert backend.max_workers == 3

    def test_get_backend_passthrough(self):
        instance = ProcessBackend(max_workers=2)
        assert get_backend(instance) is instance

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            get_backend("gpu")

    def test_serial_is_single_worker(self):
        assert SerialBackend(max_workers=8).max_workers == 1

    def test_bad_worker_and_chunk_counts(self):
        with pytest.raises(ValueError, match="max_workers"):
            ThreadBackend(max_workers=0)
        with pytest.raises(ValueError, match="map_chunk_size"):
            ExecutionConfig(map_chunk_size=0)

    def test_available_workers_positive(self):
        assert available_workers() >= 1

    def test_empty_task_list(self):
        for name in BACKENDS:
            assert get_backend(name).run_tasks(len, []) == []


class TestBackendEquivalence:
    @pytest.fixture
    def reference(self):
        return MapReduceJob(map_fn=word_map, reduce_fn=word_reduce).run(RECORDS)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_matches_simulator(self, backend, reference):
        engine = ExecutionEngine(
            map_fn=word_map,
            reduce_fn=word_reduce,
            config=ExecutionConfig(backend=backend, num_workers=2),
        )
        result = engine.run(RECORDS)
        assert result.outputs == reference.outputs
        assert result.metrics == reference.metrics
        assert result.engine.backend == backend

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_combiner_matches_simulator(self, backend):
        reference = MapReduceJob(
            map_fn=word_map, reduce_fn=word_reduce, combiner_fn=count_combiner
        ).run(RECORDS)
        engine = ExecutionEngine(
            map_fn=word_map,
            reduce_fn=word_reduce,
            combiner_fn=count_combiner,
            config=ExecutionConfig(backend=backend, num_workers=2),
        )
        result = engine.run(RECORDS)
        assert result.outputs == reference.outputs
        assert result.metrics == reference.metrics
        # The combiner shrinks the shuffle relative to the raw map output.
        assert result.metrics.communication_cost < len(
            [w for r in RECORDS for w in r.split()]
        )

    def test_chunk_sizes_do_not_change_results(self):
        baseline = ExecutionEngine(map_fn=word_map, reduce_fn=word_reduce).run(
            RECORDS
        )
        chunked = ExecutionEngine(
            map_fn=word_map,
            reduce_fn=word_reduce,
            config=ExecutionConfig(
                backend="threads",
                num_workers=2,
                map_chunk_size=1,
                num_reduce_tasks=5,
            ),
        ).run(RECORDS)
        assert chunked.outputs == baseline.outputs
        assert chunked.metrics == baseline.metrics
        assert chunked.engine.num_map_tasks == len(RECORDS)
        # Empty hash partitions are dropped, so the requested partition
        # count is an upper bound on dispatched reduce tasks.
        assert 1 <= chunked.engine.num_reduce_tasks <= 5

    def test_task_loads_cover_all_keys(self):
        result = ExecutionEngine(
            map_fn=word_map,
            reduce_fn=word_reduce,
            config=ExecutionConfig(backend="threads", num_reduce_tasks=2),
        ).run(RECORDS)
        assert sum(result.engine.task_loads) == sum(
            result.metrics.reducer_loads.values()
        )
        assert result.engine.bytes_moved == result.metrics.communication_cost


class TestCapacityEnforcement:
    def test_strict_overflow_raises_like_simulator(self):
        engine = ExecutionEngine(
            map_fn=word_map,
            reduce_fn=word_reduce,
            reducer_capacity=2,
            strict_capacity=True,
        )
        with pytest.raises(CapacityExceededError) as engine_error:
            engine.run(RECORDS)
        job = MapReduceJob(
            map_fn=word_map,
            reduce_fn=word_reduce,
            reducer_capacity=2,
            strict_capacity=True,
        )
        with pytest.raises(CapacityExceededError) as job_error:
            job.run(RECORDS)
        assert engine_error.value.key == job_error.value.key
        assert engine_error.value.load == job_error.value.load
        assert str(engine_error.value) == str(job_error.value)

    def test_non_strict_records_identical_violations(self):
        engine_result = ExecutionEngine(
            map_fn=word_map,
            reduce_fn=word_reduce,
            reducer_capacity=2,
            strict_capacity=False,
            config=ExecutionConfig(backend="threads"),
        ).run(RECORDS)
        job_result = MapReduceJob(
            map_fn=word_map,
            reduce_fn=word_reduce,
            reducer_capacity=2,
            strict_capacity=False,
        ).run(RECORDS)
        assert engine_result.metrics == job_result.metrics
        assert engine_result.metrics.capacity_violations


class TestBackendContract:
    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            Backend()  # type: ignore[abstract]

    def test_results_preserve_task_order(self):
        tasks = list(range(20))
        for name in BACKENDS:
            backend = get_backend(name, max_workers=4)
            assert backend.run_tasks(str, tasks) == [str(t) for t in tasks]
