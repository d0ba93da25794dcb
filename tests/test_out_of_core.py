"""Out-of-core execution: spill-to-disk shuffle, budgets, and key contracts.

The acceptance bar for the spill path is *bit-identity*: the same app
workload run with an artificially tiny ``memory_budget`` (forcing several
spill runs per partition) and with unbounded memory must produce identical
outputs and identical strict-mode exceptions on every backend.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.apps.skew_join import schema_skew_join
from repro.core.instance import A2AInstance
from repro.core.selector import solve_a2a
from repro.engine.backends import BACKENDS
from repro.engine.codec import encode_items
from repro.engine.config import ExecutionConfig
from repro.engine.crossval import validate_against_simulator
from repro.engine.engine import ExecutionEngine
from repro.engine.spill import (
    RUN_BLOCK_ITEMS,
    MapSpill,
    merge_sources,
    write_run,
)
from repro.exceptions import (
    CapacityExceededError,
    InvalidInstanceError,
    SpillError,
    UnknownMethodError,
)
from repro.mapreduce.job import MapReduceJob
from repro.workloads.relations import generate_join_workload
from shuffle_heavy import FANOUT, fanout_map, sum_reduce

ALL_BACKENDS = sorted(BACKENDS)


def index_reduce(key, values):
    """Module-level (picklable) reducer: the sorted input indices."""
    yield key, tuple(sorted(i for i, _ in values))


def mod3_map(record):
    """Module-level (picklable) mapper that overloads three keys."""
    yield record % 3, 1


def fanout_engine(backend: str, memory_budget: int | None, **settings):
    return ExecutionEngine(
        map_fn=fanout_map,
        reduce_fn=sum_reduce,
        config=ExecutionConfig(
            backend=backend, memory_budget=memory_budget, **settings
        ),
    )


def budgeted_pair(backend: str, records: int, memory_budget: int):
    """The fan-out workload run unbudgeted and under ``memory_budget``."""
    unbounded = fanout_engine(backend, None).run(range(records))
    budgeted = fanout_engine(backend, memory_budget).run(range(records))
    return unbounded, budgeted


class TestSpillPrimitives:
    def test_write_and_read_run_roundtrip_sorted(self, tmp_path):
        groups = {"b": [2, 3], "a": [1], "c": [4]}
        path, nbytes = write_run(groups, str(tmp_path))
        assert nbytes == os.path.getsize(path) > 0
        items = list(merge_sources([path]))
        assert items == [("a", [1]), ("b", [2, 3]), ("c", [4])]

    def test_merge_concatenates_in_source_order(self, tmp_path):
        first, _ = write_run({"k": [1, 2], "a": [0]}, str(tmp_path))
        second, _ = write_run({"k": [3], "z": [9]}, str(tmp_path))
        leftover = {"k": [4]}
        merged = dict(merge_sources([first, second, leftover]))
        assert merged["k"] == [1, 2, 3, 4]
        assert list(merged) == ["a", "k", "z"]

    def test_merge_handles_cross_type_equal_keys(self, tmp_path):
        # 1 == 1.0: the merge must group them exactly like a dict would.
        first, _ = write_run({1: ["int"]}, str(tmp_path))
        merged = dict(merge_sources([first, {1.0: ["float"]}]))
        assert merged == {1: ["int", "float"]}

    def test_unorderable_keys_raise_spill_error(self, tmp_path):
        with pytest.raises(SpillError, match="orderable"):
            write_run({"a": [1], (1, 2): [2]}, str(tmp_path))
        with pytest.raises(SpillError, match="orderable"):
            list(merge_sources([{"a": [1]}, {(1, 2): [2]}]))

    def test_corrupt_run_raises_spill_error(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_bytes(b"\x80\x05 this is not a pickle stream")
        with pytest.raises(SpillError, match="corrupt"):
            list(merge_sources([str(path)]))
        # A bare item-count header followed by per-item pickles is not a
        # run format this reader accepts.
        with open(path, "wb") as handle:
            pickle.dump(1, handle)
            pickle.dump(("a", [1]), handle)
        with pytest.raises(SpillError, match="bad header"):
            list(merge_sources([str(path)]))

    def test_missing_run_raises_spill_error(self, tmp_path):
        with pytest.raises(SpillError, match="cannot open"):
            list(merge_sources([str(tmp_path / "gone.run")]))

    def test_run_truncated_at_item_boundary_raises(self, tmp_path):
        # A run whose count header promises more items than the file
        # holds must fail loudly, not be read as a shorter run.
        groups = {f"k{i:04d}": [i] for i in range(RUN_BLOCK_ITEMS + 1)}
        path, _ = write_run(groups, str(tmp_path))
        with open(path, "rb") as handle:
            data = handle.read()
        # Drop the final one-item block, cutting the file at a block
        # boundary: the header still promises every item.
        last_block = pickle.dumps(
            encode_items([("k%04d" % RUN_BLOCK_ITEMS, [RUN_BLOCK_ITEMS])]),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert data.endswith(last_block)
        with open(path, "wb") as handle:
            handle.write(data[: -len(last_block)])
        with pytest.raises(SpillError, match="truncated"):
            list(merge_sources([path]))

    def test_map_spill_partition_runs_preserve_flush_order(self):
        spill = MapSpill(
            flushes=[("f0p0", None), ("f1p0", "f1p1"), (None, "f2p1")]
        )
        assert spill.partition_runs(0) == ["f0p0", "f1p0"]
        assert spill.partition_runs(1) == ["f1p1", "f2p1"]


class TestSpilledEqualsInMemory:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_fanout_outputs_identical_and_spilled(self, backend):
        records = list(range(1500))
        unbounded = fanout_engine(backend, None).run(records)
        budgeted = fanout_engine(
            backend, 64, num_reduce_tasks=2, map_chunk_size=400
        ).run(records)
        assert budgeted.outputs == unbounded.outputs
        assert unbounded.metrics.spill_runs == 0
        assert unbounded.metrics.spilled_bytes == 0
        # >= 2 spill runs per partition, per the acceptance criteria.
        assert budgeted.metrics.spill_runs >= 2 * 2
        assert budgeted.metrics.spilled_bytes > 0
        assert 0 < budgeted.metrics.peak_buffered_pairs <= 64 + FANOUT
        # Analytical metrics are identical either way.
        assert budgeted.metrics.reducer_loads == unbounded.metrics.reducer_loads
        assert (
            budgeted.metrics.communication_cost
            == unbounded.metrics.communication_cost
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_crossval_app_workload_tiny_budget(self, backend):
        """The acceptance test: same app workload, tiny budget vs unbounded,
        diffed against the reference simulator on every backend."""
        instance = A2AInstance([3, 5, 2, 6, 4, 5, 3, 4], q=12)
        schema = solve_a2a(instance)
        records = [f"payload-{i}" for i in range(instance.m)]
        results = {}
        for budget in (None, 2):
            engine_result, job_result, report = validate_against_simulator(
                schema,
                records,
                index_reduce,
                config=ExecutionConfig(backend=backend, memory_budget=budget),
            )
            assert report.ok, report.summary()
            results[budget] = engine_result
        assert results[2].outputs == results[None].outputs
        assert results[2].metrics.spill_runs >= 2
        assert results[None].metrics.spill_runs == 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_strict_mode_exception_identical(self, backend):
        """An overloaded key must raise the same CapacityExceededError
        (same key, load, capacity) with and without spilling."""

        errors = {}
        for budget in (None, 8):
            engine = ExecutionEngine(
                map_fn=mod3_map,
                reduce_fn=sum_reduce,
                reducer_capacity=5,
                strict_capacity=True,
                config=ExecutionConfig(backend=backend, memory_budget=budget),
            )
            with pytest.raises(CapacityExceededError) as excinfo:
                engine.run(list(range(60)))
            errors[budget] = excinfo.value
        assert errors[8].key == errors[None].key
        assert errors[8].load == errors[None].load
        assert errors[8].capacity == errors[None].capacity
        assert str(errors[8]) == str(errors[None])

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_skew_join_app_spilled_equals_in_memory(self, backend):
        x, y = generate_join_workload(300, 300, 8, 1.3, seed=11)
        baseline = schema_skew_join(
            x, y, 80, config=ExecutionConfig(backend=backend)
        )
        budgeted = schema_skew_join(
            x, y, 80, config=ExecutionConfig(backend=backend, memory_budget=32)
        )
        assert budgeted.triples == baseline.triples
        assert budgeted.metrics.spill_runs >= 2
        assert baseline.metrics.spill_runs == 0

    def test_spill_dir_cleaned_up(self, tmp_path):
        spill_base = tmp_path / "spills"
        result = fanout_engine(
            "serial", 32, spill_dir=str(spill_base)
        ).run(list(range(500)))
        assert result.metrics.spill_runs > 0
        # The base dir survives but the per-run subdirectory is removed.
        assert spill_base.exists()
        assert list(spill_base.iterdir()) == []

    def test_spill_dir_cleaned_up_on_strict_failure(self, tmp_path):
        spill_base = tmp_path / "spills"
        engine = ExecutionEngine(
            map_fn=lambda r: [(0, 1)],
            reduce_fn=sum_reduce,
            reducer_capacity=3,
            strict_capacity=True,
            config=ExecutionConfig(memory_budget=8, spill_dir=str(spill_base)),
        )
        with pytest.raises(CapacityExceededError):
            engine.run(list(range(50)))
        assert list(spill_base.iterdir()) == []


class TestKeyContract:
    def test_engine_rejects_nan_keys_in_strict_mode(self):
        engine = ExecutionEngine(
            map_fn=lambda r: [(float("nan"), r)],
            reduce_fn=sum_reduce,
            strict_capacity=True,
        )
        with pytest.raises(InvalidInstanceError, match="non-self-equal"):
            engine.run([1, 2, 3])

    def test_engine_rejects_nan_keys_when_budgeted_even_nonstrict(self):
        engine = ExecutionEngine(
            map_fn=lambda r: [(float("nan"), r)],
            reduce_fn=sum_reduce,
            strict_capacity=False,
            config=ExecutionConfig(memory_budget=1),
        )
        with pytest.raises(InvalidInstanceError, match="non-self-equal"):
            engine.run([1, 2, 3])

    def test_engine_nonstrict_unbudgeted_keeps_dict_semantics(self):
        # Pin the historical behavior: without strict mode or a budget,
        # NaN keys fall through to raw dict grouping (one group per NaN
        # object within a chunk).
        nan = float("nan")
        engine = ExecutionEngine(
            map_fn=lambda r: [(nan, r)],
            reduce_fn=lambda k, v: [len(v)],
            strict_capacity=False,
        )
        result = engine.run([1, 2, 3])
        assert result.outputs == [3]  # same NaN object -> one dict group

    def test_simulator_pins_nan_grouping_behavior(self):
        # The reference simulator keeps raw dict semantics: distinct NaN
        # objects group separately even though they all print as nan.
        job = MapReduceJob(
            map_fn=lambda r: [(float("nan"), r)],
            reduce_fn=lambda k, v: [len(v)],
        )
        result = job.run([1, 2, 3])
        assert result.outputs == [1, 1, 1]
        assert result.metrics.num_reducers == 3
        assert all(math.isnan(k) for k in result.metrics.reducer_loads)


class TestConfigAndBench:
    def test_execution_config_validates(self):
        with pytest.raises(InvalidInstanceError, match="memory_budget"):
            ExecutionConfig(memory_budget=0)
        with pytest.raises(InvalidInstanceError, match="num_workers"):
            ExecutionConfig(num_workers=-1)
        # An unknown backend fails here with the same error type as at
        # run time, not later on whichever path first resolves it.
        with pytest.raises(UnknownMethodError, match="unknown backend 'gpu'"):
            ExecutionConfig(backend="gpu")
        # Counts must be integers: a float is a typed error, not a bare
        # TypeError from deep inside the engine.
        for name, value in (
            ("num_workers", 2.5),
            ("map_chunk_size", 1.5),
            ("num_reduce_tasks", "3"),
            ("memory_budget", True),
        ):
            with pytest.raises(InvalidInstanceError, match=name):
                ExecutionConfig(backend="threads", **{name: value})

    def test_engine_rejects_nonpositive_budget(self):
        # The config is validated when built and frozen after, so a bad
        # budget never reaches an engine run.
        with pytest.raises(InvalidInstanceError, match="memory_budget"):
            fanout_engine("serial", 0)
        engine = fanout_engine("serial", None)
        with pytest.raises(FrozenInstanceError):
            engine.config.memory_budget = 0

    def test_run_out_of_core_rows_and_check(self):
        # On every backend a budgeted run spills, keeps its buffer within
        # the budget plus one record's fan-out, and matches the unbudgeted
        # run; the unbudgeted run never spills.
        for backend in ALL_BACKENDS:
            unbounded, budgeted = budgeted_pair(backend, 800, 128)
            assert unbounded.metrics.spill_runs == 0, backend
            assert budgeted.metrics.spill_runs >= 1, backend
            assert budgeted.metrics.peak_buffered_pairs <= 128 - 1 + FANOUT
            assert budgeted.outputs == unbounded.outputs, backend

    def test_check_spill_flags_missing_spill(self):
        # spill_runs counts real spills: a budget that holds every pair
        # reports none, and the same records under a small budget do not.
        records = 100
        for backend in ALL_BACKENDS:
            roomy = fanout_engine(backend, records * FANOUT + 1).run(
                range(records)
            )
            tight = fanout_engine(backend, 16).run(range(records))
            assert roomy.metrics.spill_runs == 0, backend
            assert roomy.metrics.spilled_bytes == 0, backend
            assert tight.metrics.spill_runs >= 1, backend
            assert tight.metrics.spilled_bytes > 0, backend
            assert tight.outputs == roomy.outputs, backend

    def test_check_spill_peak_bound_accounts_for_fanout(self):
        # A budget below one record's fan-out: the spill trigger fires
        # between records, so the buffer passes the budget by up to one
        # record's fan-out, and no further.
        for backend in ALL_BACKENDS:
            unbounded, budgeted = budgeted_pair(backend, 200, 8)
            assert budgeted.metrics.spill_runs >= 1, backend
            assert 8 < budgeted.metrics.peak_buffered_pairs <= 8 - 1 + FANOUT
            assert budgeted.outputs == unbounded.outputs, backend
