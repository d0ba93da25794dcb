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
    available_workers,
    get_backend,
)
from repro.engine.config import ExecutionConfig
from repro.exceptions import CapacityExceededError, UnknownMethodError

from oracle import oracle_run
from word_count import RECORDS, word_engine


class TestBackendRegistry:
    def test_registry_names(self):
        assert sorted(BACKENDS) == ["processes", "serial"]

    def test_thread_backend_is_gone(self):
        # Pure-Python reduce work never ran faster on a thread pool than
        # serially, so the name is unknown like any other.
        with pytest.raises(UnknownMethodError, match="unknown backend 'threads'"):
            ExecutionConfig(backend="threads")
        with pytest.raises(UnknownMethodError, match="unknown backend 'threads'"):
            get_backend("threads")

    def test_get_backend_by_name(self):
        backend = get_backend("processes", max_workers=3)
        assert isinstance(backend, ProcessBackend)
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
            ProcessBackend(max_workers=0)
        with pytest.raises(ValueError, match="num_reduce_tasks"):
            ExecutionConfig(num_reduce_tasks=0)
        # The parent routes every record, so there is no map chunk knob.
        with pytest.raises(TypeError, match="map_chunk_size"):
            ExecutionConfig(map_chunk_size=1)

    def test_available_workers_positive(self):
        assert available_workers() >= 1

    def test_empty_task_list(self):
        for name in BACKENDS:
            assert get_backend(name).run_tasks(len, []) == []


class TestBackendEquivalence:
    @pytest.fixture
    def reference(self):
        return oracle_run(word_engine())

    @pytest.mark.parametrize(
        ("backend", "parts"),
        [
            pytest.param("processes", None, id="processes"),
            pytest.param("serial", None, id="serial"),
            pytest.param("serial", 4, id="serial-partitioned"),
        ],
    )
    def test_matches_simulator(self, backend, parts, reference):
        engine = word_engine(
            config=ExecutionConfig(
                backend=backend, num_workers=2, num_reduce_tasks=parts
            )
        )
        result = engine.run()
        assert result.outputs == reference.outputs
        assert result.metrics == reference.metrics
        assert result.engine.backend == backend

    @pytest.mark.parametrize("partitions", [1, 5, 64])
    def test_partition_counts_do_not_change_results(self, partitions):
        baseline = word_engine().run()
        partitioned = word_engine(
            config=ExecutionConfig(
                backend="processes",
                num_workers=2,
                num_reduce_tasks=partitions,
            ),
        ).run()
        assert partitioned.outputs == baseline.outputs
        assert partitioned.metrics == baseline.metrics
        assert partitioned.engine.num_map_tasks == 0
        # Empty partitions are dropped, so the requested partition
        # count is an upper bound on dispatched reduce tasks.
        assert 1 <= partitioned.engine.num_reduce_tasks <= partitions

    def test_task_loads_cover_all_keys(self):
        result = word_engine(
            config=ExecutionConfig(backend="processes", num_reduce_tasks=2),
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
            config=ExecutionConfig(backend="processes"),
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
