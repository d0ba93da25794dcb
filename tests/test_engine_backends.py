"""Unit tests for the engine's pluggable backends.

Reduce functions used with the ``processes`` backend are module-level
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
from repro.engine.crossval import oracle_run
from repro.exceptions import CapacityExceededError

from word_count import RECORDS, word_engine


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
        return oracle_run(word_engine())

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_matches_simulator(self, backend, reference):
        engine = word_engine(
            config=ExecutionConfig(backend=backend, num_workers=2)
        )
        result = engine.run()
        assert result.outputs == reference.outputs
        assert result.metrics == reference.metrics
        assert result.engine.backend == backend

    def test_chunk_sizes_do_not_change_results(self):
        baseline = word_engine().run()
        chunked = word_engine(
            config=ExecutionConfig(
                backend="threads",
                num_workers=2,
                map_chunk_size=1,
                num_reduce_tasks=5,
            ),
        ).run()
        assert chunked.outputs == baseline.outputs
        assert chunked.metrics == baseline.metrics
        assert chunked.engine.num_map_tasks == len(RECORDS)
        # Empty partitions are dropped, so the requested partition
        # count is an upper bound on dispatched reduce tasks.
        assert 1 <= chunked.engine.num_reduce_tasks <= 5

    def test_task_loads_cover_all_keys(self):
        result = word_engine(
            config=ExecutionConfig(backend="threads", num_reduce_tasks=2),
        ).run()
        assert sum(result.engine.task_loads) == sum(
            result.metrics.reducer_loads.values()
        )
        assert result.engine.bytes_moved == result.metrics.communication_cost


class TestCapacityEnforcement:
    def test_strict_overflow_raises_like_simulator(self):
        engine = word_engine(capacity=5, strict_capacity=True)
        with pytest.raises(CapacityExceededError) as engine_error:
            engine.run()
        with pytest.raises(CapacityExceededError) as job_error:
            oracle_run(engine)
        assert engine_error.value.key == job_error.value.key
        assert engine_error.value.load == job_error.value.load
        assert str(engine_error.value) == str(job_error.value)

    def test_non_strict_records_identical_violations(self):
        engine = word_engine(
            capacity=5,
            strict_capacity=False,
            config=ExecutionConfig(backend="threads"),
        )
        engine_result = engine.run()
        job_result = oracle_run(engine)
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
