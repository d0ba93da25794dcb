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
import threading
from dataclasses import FrozenInstanceError

import pytest

from repro.apps.skew_join import schema_skew_join
from repro.core.instance import A2AInstance
from repro.core.selector import solve_a2a
from repro.engine import engine as engine_module
from repro.engine.backends import BACKENDS
from repro.engine.config import ExecutionConfig
from repro.engine.crossval import (
    compare_results,
    oracle_run,
    validate_against_simulator,
)
from repro.engine.engine import ExecutionEngine
from repro.engine.routing import SchemaPlan
from repro.engine.spill import (
    MapSpill,
    read_run,
    record_table,
    spill_buckets,
    write_run,
)
from repro.exceptions import (
    CapacityExceededError,
    InvalidInstanceError,
    SpillError,
    UnknownMethodError,
)
from repro.mapreduce.job import MapReduceJob
from repro.obs.trace import Tracer
from repro.workloads.relations import generate_join_workload
from shuffle_heavy import fanout_plan, sum_reduce

ALL_BACKENDS = sorted(BACKENDS)

#: ``(backend, num_reduce_tasks)`` for the tests that leave the partition
#: count to the engine: each backend at its default, plus serial over
#: several partitions, so an in-process run spills and merges more than
#: one partition.
BACKEND_PARTS = [
    pytest.param("processes", None, id="processes"),
    pytest.param("serial", None, id="serial"),
    pytest.param("serial", 4, id="serial-partitioned"),
]


def index_reduce(key, values):
    """Module-level (picklable) reducer: the sorted input indices."""
    yield key, tuple(sorted(i for i, _ in values))


def mod3_plan(count: int, capacity: int) -> SchemaPlan:
    """Records ``0..count-1`` of size 1 over three reducers by
    ``record % 3``, which overloads all three."""
    return SchemaPlan.from_members(
        list(range(count)),
        [1] * count,
        [range(k, count, 3) for k in range(3)],
        capacity=capacity,
    )


#: Reduce partitions of the fan-out runs, so a record ships at most this
#: many routed pairs (its 24 reducers spread over every partition).
PARTS = 8


def fanout_engine(
    backend: str, memory_budget: int | None, records: list[int], **settings
):
    settings.setdefault("num_reduce_tasks", PARTS)
    return ExecutionEngine(
        plan=fanout_plan(records),
        reduce_fn=sum_reduce,
        config=ExecutionConfig(
            backend=backend, memory_budget=memory_budget, **settings
        ),
    )


def budgeted_pair(backend: str, records: int, memory_budget: int):
    """The fan-out workload run unbudgeted and under ``memory_budget``."""
    unbounded = fanout_engine(backend, None, list(range(records))).run()
    budgeted = fanout_engine(backend, memory_budget, list(range(records))).run()
    return unbounded, budgeted


class TestSpillPrimitives:
    def test_write_and_read_run_roundtrip(self, tmp_path):
        groups = {"b": [2, 3], "a": [1], ("x", 4): [4]}
        path, nbytes = write_run(groups, str(tmp_path))
        assert nbytes == os.path.getsize(path) > 0
        table = read_run(path)
        assert table == groups
        # A run is the bucket as it was buffered: its keys need no order.
        assert list(table) == ["b", "a", ("x", 4)]

    def test_merge_concatenates_in_source_order(self, tmp_path):
        # A reduce task reads its partition's runs and in-memory bucket
        # into one record table, source by source.
        first, _ = write_run({("y", 0): "y0", ("x", 1): "x1"}, str(tmp_path))
        second, _ = write_run({3: "r3", 2: "r2"}, str(tmp_path))
        leftover = {0: "r0"}
        table = record_table([first, second, leftover])
        assert table == {
            ("x", 1): "x1", ("y", 0): "y0", 2: "r2", 3: "r3", 0: "r0"
        }
        assert list(table) == [("y", 0), ("x", 1), 3, 2, 0]

    def test_merge_handles_cross_type_equal_keys(self, tmp_path):
        # 1 == 1.0: the record table keys them exactly like a dict would.
        first, _ = write_run({1: "int"}, str(tmp_path))
        assert record_table([first, {1.0: "float"}]) == {1: "float"}

    def test_corrupt_run_raises_spill_error(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_bytes(b"\x80\x05 this is not a pickle stream")
        with pytest.raises(SpillError, match="corrupt"):
            record_table([str(path)])

    def test_non_dict_run_raises_spill_error(self, tmp_path):
        path = tmp_path / "list.run"
        path.write_bytes(pickle.dumps([("a", [1])]))
        with pytest.raises(SpillError, match="expected a dict, got list"):
            read_run(str(path))

    def test_trailing_bytes_raise_spill_error(self, tmp_path):
        # A second pickle after the run (the shape of the old per-item
        # run format) is not a run this reader accepts.
        path = tmp_path / "two.run"
        path.write_bytes(pickle.dumps({"a": [1]}) + pickle.dumps({"b": [2]}))
        with pytest.raises(SpillError, match="trailing bytes"):
            read_run(str(path))

    def test_missing_run_raises_spill_error(self, tmp_path):
        with pytest.raises(SpillError, match="cannot open"):
            record_table([str(tmp_path / "gone.run")])

    def test_run_truncated_at_any_byte_raises(self, tmp_path):
        # A run cut anywhere loses its pickle's STOP opcode: it must fail
        # loudly, never read as a shorter run.
        groups = {i: f"record-{i}" for i in range(40)}
        path, nbytes = write_run(groups, str(tmp_path))
        with open(path, "rb") as handle:
            data = handle.read()
        assert len(data) == nbytes
        for cut in range(nbytes):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            with pytest.raises(SpillError, match="truncated"):
                read_run(path)

    def test_spill_buckets_keeps_runs_per_partition_in_flush_order(
        self, tmp_path
    ):
        spill = MapSpill(runs=[[], []])
        flushes = [({0: "a"}, {}), ({2: "b"}, {1: "c"}), ({}, {3: "d"})]
        for buckets in flushes:
            spill_buckets(list(buckets), str(tmp_path), spill)
        assert [len(runs) for runs in spill.runs] == [2, 2]
        assert spill.spill_runs == 4
        assert spill.spilled_bytes == sum(
            os.path.getsize(path) for runs in spill.runs for path in runs
        )
        assert [read_run(path) for path in spill.runs[0]] == [
            {0: "a"}, {2: "b"}
        ]
        assert [read_run(path) for path in spill.runs[1]] == [
            {1: "c"}, {3: "d"}
        ]


class TestSpilledEqualsInMemory:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_fanout_outputs_identical_and_spilled(self, backend):
        records = list(range(1500))
        unbounded = fanout_engine(backend, None, records).run()
        budgeted = fanout_engine(
            backend, 64, records, num_reduce_tasks=2
        ).run()
        assert budgeted.outputs == unbounded.outputs
        assert unbounded.metrics.spill_runs == 0
        assert unbounded.metrics.spilled_bytes == 0
        # >= 2 spill runs per partition, per the acceptance criteria.
        assert budgeted.metrics.spill_runs >= 2 * 2
        assert budgeted.metrics.spilled_bytes > 0
        # A record ships once to each of at most 2 partitions.
        assert 0 < budgeted.metrics.peak_buffered_pairs <= 64 - 1 + 2
        # Analytical metrics are identical either way.
        assert budgeted.metrics.reducer_loads == unbounded.metrics.reducer_loads
        assert (
            budgeted.metrics.communication_cost
            == unbounded.metrics.communication_cost
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_budgeted_run_spills_under_the_map_span(self, backend, tmp_path):
        """The parent flushes its routed pairs past the budget: the run
        equals the oracle, removes every run file, and traces each flush
        as a ``spill`` span under the ``map`` span."""
        spill_base = tmp_path / "spills"
        tracer = Tracer()
        engine = ExecutionEngine(
            plan=fanout_plan(list(range(300))),
            reduce_fn=sum_reduce,
            tracer=tracer,
            config=ExecutionConfig(
                backend=backend,
                num_workers=2,
                num_reduce_tasks=PARTS,
                memory_budget=64,
                spill_dir=str(spill_base),
            ),
        )
        result = engine.run()
        report = compare_results(result, oracle_run(engine))
        assert report.ok, report.summary()
        assert result.metrics.spill_runs > 0
        assert list(spill_base.iterdir()) == []
        spans = tracer.spans()
        (map_span,) = [s for s in spans if s.name == "map"]
        spills = [s for s in spans if s.name == "spill"]
        assert spills
        assert all(s.parent_id == map_span.span_id for s in spills)
        assert sum(s.attrs["runs"] for s in spills) == (
            result.metrics.spill_runs
        )
        assert sum(s.attrs["bytes"] for s in spills) == (
            result.metrics.spilled_bytes
        )

    @pytest.mark.parametrize(("backend", "parts"), BACKEND_PARTS)
    def test_crossval_app_workload_tiny_budget(self, backend, parts):
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
                config=ExecutionConfig(
                    backend=backend,
                    num_reduce_tasks=parts,
                    memory_budget=budget,
                ),
            )
            assert report.ok, report.summary()
            results[budget] = engine_result
        assert results[2].outputs == results[None].outputs
        assert results[2].metrics.spill_runs >= 2
        assert results[None].metrics.spill_runs == 0

    @pytest.mark.parametrize(("backend", "parts"), BACKEND_PARTS)
    def test_strict_mode_exception_identical(self, backend, parts):
        """An overloaded reducer must raise the same CapacityExceededError
        (same key, load, capacity) with and without spilling."""

        errors = {}
        for budget in (None, 8):
            engine = ExecutionEngine(
                plan=mod3_plan(60, capacity=5),
                reduce_fn=sum_reduce,
                strict_capacity=True,
                config=ExecutionConfig(
                    backend=backend,
                    num_reduce_tasks=parts,
                    memory_budget=budget,
                ),
            )
            with pytest.raises(CapacityExceededError) as excinfo:
                engine.run()
            errors[budget] = excinfo.value
        assert errors[8].key == errors[None].key
        assert errors[8].load == errors[None].load
        assert errors[8].capacity == errors[None].capacity
        assert str(errors[8]) == str(errors[None])

    @pytest.mark.parametrize(("backend", "parts"), BACKEND_PARTS)
    def test_skew_join_app_spilled_equals_in_memory(self, backend, parts):
        x, y = generate_join_workload(300, 300, 8, 1.3, seed=11)
        baseline = schema_skew_join(
            x,
            y,
            80,
            config=ExecutionConfig(backend=backend, num_reduce_tasks=parts),
        )
        budgeted = schema_skew_join(
            x,
            y,
            80,
            config=ExecutionConfig(
                backend=backend, num_reduce_tasks=parts, memory_budget=32
            ),
        )
        assert budgeted.triples == baseline.triples
        assert budgeted.metrics.spill_runs >= 2
        assert baseline.metrics.spill_runs == 0

    def test_spill_dir_cleaned_up(self, tmp_path):
        spill_base = tmp_path / "spills"
        result = fanout_engine(
            "serial", 32, list(range(500)), spill_dir=str(spill_base)
        ).run()
        assert result.metrics.spill_runs > 0
        # The base dir survives but the per-run subdirectory is removed.
        assert spill_base.exists()
        assert list(spill_base.iterdir()) == []

    def test_spill_dir_cleaned_up_on_strict_failure(self, tmp_path):
        spill_base = tmp_path / "spills"
        engine = ExecutionEngine(
            plan=SchemaPlan.from_members(
                list(range(50)), [1] * 50, [range(50)], capacity=3
            ),
            reduce_fn=sum_reduce,
            strict_capacity=True,
            config=ExecutionConfig(memory_budget=8, spill_dir=str(spill_base)),
        )
        with pytest.raises(CapacityExceededError):
            engine.run()
        assert list(spill_base.iterdir()) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_damaged_run_fails_typed_and_leaks_nothing(
        self, backend, tmp_path, monkeypatch
    ):
        """A run cut short on disk fails its reduce task with SpillError,
        which crosses the worker pool typed, and the run's spill
        directory is still removed."""

        def truncating_spill(buckets, spill_dir, spill):
            before = [len(runs) for runs in spill.runs]
            flushed = spill_buckets(buckets, spill_dir, spill)
            for count, runs in zip(before, spill.runs):
                for path in runs[count:]:
                    os.truncate(path, os.path.getsize(path) // 2)
            return flushed

        monkeypatch.setattr(engine_module, "spill_buckets", truncating_spill)
        spill_base = tmp_path / "spills"
        engine = fanout_engine(
            backend,
            64,
            list(range(300)),
            num_workers=2,
            spill_dir=str(spill_base),
        )
        with pytest.raises(SpillError, match="truncated"):
            engine.run()
        assert list(spill_base.iterdir()) == []

    @pytest.mark.parametrize(
        "parts",
        [
            pytest.param(None, id="serial"),
            pytest.param(4, id="serial-partitioned"),
        ],
    )
    def test_unpicklable_record_fails_typed_and_leaks_nothing(
        self, parts, tmp_path
    ):
        """A record that cannot be pickled fails the flush that spills it
        with SpillError (the serial backend never pickles it otherwise),
        and the run's spill directory is still removed."""
        records = [0, 1, threading.Lock(), 3, 4, 5]
        spill_base = tmp_path / "spills"
        engine = ExecutionEngine(
            plan=SchemaPlan.from_members(
                records, [1] * 6, [range(0, 6, 2), range(1, 6, 2)], capacity=6
            ),
            reduce_fn=index_reduce,
            config=ExecutionConfig(
                num_reduce_tasks=parts,
                memory_budget=2,
                spill_dir=str(spill_base),
            ),
        )
        with pytest.raises(SpillError, match="cannot write spill run"):
            engine.run()
        assert list(spill_base.iterdir()) == []


class TestKeyContract:
    def test_engine_rejects_nan_keys_in_strict_mode(self):
        # An engine's keys are its plan's input indices: a NaN (not equal
        # to itself, so not groupable) cannot even enter a plan.
        with pytest.raises(InvalidInstanceError, match="outside"):
            SchemaPlan.from_members(
                [1, 2, 3], [1, 1, 1], [[0, float("nan")]], capacity=None
            )

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
            ("num_reduce_tasks", "3"),
            ("memory_budget", True),
        ):
            with pytest.raises(InvalidInstanceError, match=name):
                ExecutionConfig(backend="processes", **{name: value})

    def test_engine_rejects_nonpositive_budget(self):
        # The config is validated when built and frozen after, so a bad
        # budget never reaches an engine run.
        with pytest.raises(InvalidInstanceError, match="memory_budget"):
            fanout_engine("serial", 0, [])
        engine = fanout_engine("serial", None, [])
        with pytest.raises(FrozenInstanceError):
            engine.config.memory_budget = 0

    def test_run_out_of_core_rows_and_check(self):
        # On every backend a budgeted run spills, keeps its buffer within
        # the budget plus one record's routed pairs (one per partition),
        # and matches the unbudgeted run; the unbudgeted run never spills.
        for backend in ALL_BACKENDS:
            unbounded, budgeted = budgeted_pair(backend, 800, 128)
            assert unbounded.metrics.spill_runs == 0, backend
            assert budgeted.metrics.spill_runs >= 1, backend
            assert budgeted.metrics.peak_buffered_pairs <= 128 - 1 + PARTS
            assert budgeted.outputs == unbounded.outputs, backend

    def test_check_spill_flags_missing_spill(self):
        # spill_runs counts real spills: a budget that holds every pair
        # reports none, and the same records under a small budget do not.
        records = list(range(100))
        for backend in ALL_BACKENDS:
            roomy = fanout_engine(
                backend, len(records) * PARTS + 1, records
            ).run()
            tight = fanout_engine(backend, 16, records).run()
            assert roomy.metrics.spill_runs == 0, backend
            assert roomy.metrics.spilled_bytes == 0, backend
            assert tight.metrics.spill_runs >= 1, backend
            assert tight.metrics.spilled_bytes > 0, backend
            assert tight.outputs == roomy.outputs, backend

    def test_check_spill_peak_bound_accounts_for_fanout(self):
        # A budget below one record's routed pairs: the spill trigger
        # fires between records, so the buffer passes the budget by up to
        # one record's routed pairs, and no further.
        for backend in ALL_BACKENDS:
            unbounded, budgeted = budgeted_pair(backend, 200, 4)
            assert budgeted.metrics.spill_runs >= 1, backend
            assert 4 < budgeted.metrics.peak_buffered_pairs <= 4 - 1 + PARTS
            assert budgeted.outputs == unbounded.outputs, backend


class TestLintScope:
    """The spill writer and reader sit inside the engine package, so the
    determinism and pickle-safety rules must cover them automatically."""

    def test_spill_module_is_in_rule_scopes(self):
        from pathlib import Path

        from repro.analysis.lint import load_module
        from repro.analysis.lint.rules import (
            DeterminismRule,
            PickleSafetyRule,
        )

        src = Path(__file__).parent.parent / "src"
        info = load_module(src / "repro" / "engine" / "spill.py", root=src)
        assert info.module == "repro.engine.spill"
        assert info.in_package(DeterminismRule.scopes)
        assert info.in_package(PickleSafetyRule.scopes)
