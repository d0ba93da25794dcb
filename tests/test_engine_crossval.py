"""Cross-validation: the engine must agree with the reference simulator.

This is the acceptance gate for the engine subsystem — the serial backend
has to be byte-identical to :class:`repro.mapreduce.job.MapReduceJob` in
outputs *and* metrics before the parallel backends mean anything.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from math import comb

import pytest

from repro.apps.common_friends import (
    _common_friends_reduce,
    run_common_friends,
)
from repro.apps.similarity_join import (
    _broadcast_engine,
    run_broadcast_baseline,
    run_similarity_join,
    similarity_reducer,
)
from repro.apps.skew_join import (
    _hash_join_engine,
    _skew_join_engine,
    hash_join,
    naive_join,
    schema_skew_join,
)
from repro.apps.tensor_product import (
    _outer_product_reduce,
    distributed_outer_product,
)
from repro.apps.threeway_similarity import (
    _threeway_reduce,
    run_threeway_similarity,
)
from repro.core.selector import solve_a2a, solve_x2y
from repro.engine.config import ExecutionConfig
from repro.engine.crossval import (
    CrossValidationReport,
    compare_results,
    oracle_run,
    validate_against_simulator,
)
from repro.engine.routing import a2a_reducer_masks, x2y_reducer_masks
from repro.mapreduce.job import JobResult
from repro.workloads.documents import generate_documents
from repro.workloads.relations import generate_join_workload
from repro.workloads.social import generate_users
from repro.workloads.vectors import generate_block_vector

#: The engine settings every check runs on: the serial default (one
#: reduce partition), the serial backend over several reduce partitions
#: (the partitioned shuffle and reducer-aligned reassembly, in-process),
#: and a process pool.
CONFIGS = [
    pytest.param(ExecutionConfig(), id="serial"),
    pytest.param(ExecutionConfig(num_reduce_tasks=4), id="serial-partitioned"),
    pytest.param(
        ExecutionConfig(backend="processes", num_workers=2), id="processes"
    ),
]


def tally_reduce(key, values):
    """Deterministic reducer: reducer id plus the sorted input indices."""
    yield key, tuple(sorted(v[:-1] if len(v) == 3 else (v[0],) for v in values))


def schema_oracle(schema, records, reduce_fn, config) -> JobResult:
    """The simulator's run of a schema app, checked against the engine's
    run of the same functions on *config*."""
    _, oracle, report = validate_against_simulator(
        schema, records, reduce_fn, config=config
    )
    assert report.ok, report.summary()
    return oracle


class TestSchemaCrossValidation:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_a2a_engine_equals_simulator(self, small_a2a, config):
        schema = solve_a2a(small_a2a).require_valid()
        records = [f"rec{i}" for i in range(schema.instance.m)]
        engine_result, job_result, report = validate_against_simulator(
            schema,
            records,
            tally_reduce,
            config=config,
        )
        assert report.ok, report.summary()
        assert engine_result.outputs == job_result.outputs
        assert engine_result.metrics == job_result.metrics

    @pytest.mark.parametrize("config", CONFIGS)
    def test_x2y_engine_equals_simulator(self, small_x2y, config):
        schema = solve_x2y(small_x2y).require_valid()
        x_records = [f"x{i}" for i in range(schema.instance.m)]
        y_records = [f"y{j}" for j in range(schema.instance.n)]
        _, _, report = validate_against_simulator(
            schema,
            (x_records, y_records),
            tally_reduce,
            config=config,
        )
        assert report.ok, report.summary()

    def test_report_flags_mismatches(self, small_a2a):
        schema = solve_a2a(small_a2a).require_valid()
        records = [f"rec{i}" for i in range(schema.instance.m)]
        engine_result, job_result, _ = validate_against_simulator(
            schema, records, tally_reduce
        )
        # Tamper with the engine outputs to prove the diff catches it.
        broken = type(engine_result)(
            outputs=engine_result.outputs[:-1],
            metrics=engine_result.metrics,
            engine=engine_result.engine,
        )
        report = compare_results(broken, job_result)
        assert not report.ok
        assert not report.outputs_match
        assert "outputs differ" in report.summary()

    def test_report_summary_when_ok(self):
        report = CrossValidationReport(outputs_match=True, metrics_match=True)
        assert "identical" in report.summary()


class TestApplicationCrossValidation:
    """Every app against a :class:`MapReduceJob` oracle built here.

    The oracle runs the app's own reduce function over the app's plan,
    routed per reducer by :func:`oracle_map_fn` (through
    :func:`validate_against_simulator` for the single-schema apps), so
    the app's engine run is compared with the reference executor rather
    than with another engine run.  Outputs *and* JobMetrics must match on
    every backend: partitioning may batch reducers differently, but
    nothing observable may change.
    """

    @pytest.mark.parametrize("config", CONFIGS)
    def test_similarity_join_engine_is_byte_identical(self, config):
        documents = generate_documents(24, 50, seed=11)
        run = run_similarity_join(
            documents, 50, 0.02, config=config
        )
        reduce_fn = similarity_reducer(run.schema, documents, 0.02)
        oracle = schema_oracle(run.schema, documents, reduce_fn, config)
        assert run.pairs and run.pairs == tuple(oracle.outputs)
        assert run.metrics == oracle.metrics
        assert run.engine.backend == config.backend

    @pytest.mark.parametrize("config", CONFIGS)
    def test_common_friends_engine_is_byte_identical(self, config):
        users = generate_users(16, 40, seed=4)
        run = run_common_friends(
            users, 40, config=config
        )
        reduce_fn = partial(
            _common_friends_reduce, masks=a2a_reducer_masks(run.schema)
        )
        oracle = schema_oracle(run.schema, users, reduce_fn, config)
        assert run.pairs == tuple(oracle.outputs)
        assert run.metrics == oracle.metrics

    @pytest.mark.parametrize("config", CONFIGS)
    def test_tensor_product_engine_is_byte_identical(self, config):
        u = generate_block_vector("u", 6, 20, seed=1)
        v = generate_block_vector("v", 5, 20, seed=2)
        run = distributed_outer_product(
            u, v, 20, config=config
        )
        reduce_fn = partial(
            _outer_product_reduce, masks=x2y_reducer_masks(run.schema)
        )
        oracle = schema_oracle(
            run.schema, (u.blocks, v.blocks), reduce_fn, config
        )
        assert run.entries == tuple(oracle.outputs)
        assert run.metrics == oracle.metrics

    @pytest.mark.parametrize("config", CONFIGS)
    def test_threeway_similarity_engine_is_byte_identical(self, config):
        # The app runs serial; the oracle check runs its reducer on every
        # engine setting over the app's multiway schema.
        documents = generate_documents(14, 30, seed=3)
        run = run_threeway_similarity(documents, 30, 0.0)
        reduce_fn = partial(
            _threeway_reduce,
            masks=a2a_reducer_masks(run.schema),
            threshold=0.0,
        )
        oracle = schema_oracle(run.schema, documents, reduce_fn, config)
        assert len(run.triples) == comb(14, 3)
        assert run.triples == tuple(oracle.outputs)
        assert run.metrics == oracle.metrics

    @pytest.mark.parametrize("config", CONFIGS)
    def test_skew_join_engine_is_byte_identical(self, config):
        x, y = generate_join_workload(240, 240, 8, 1.3, seed=5)
        run = schema_skew_join(
            x, y, 70, config=config
        )
        oracle = oracle_run(
            _skew_join_engine(x, y, 70, run.heavy_keys, run.schemas)
        )
        assert run.heavy_keys
        assert run.triples == tuple(oracle.outputs)
        assert run.metrics == oracle.metrics
        # Both match the centrally-computed ground truth.
        assert run.triple_set() == naive_join(x, y)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_hash_join_engine_is_byte_identical(self, config):
        x, y = generate_join_workload(240, 240, 8, 1.3, seed=5)
        engine = replace(
            _hash_join_engine(x, y, 70),
            config=config,
        )
        oracle = oracle_run(engine)
        result = engine.run()
        run = hash_join(x, y, 70)
        assert oracle.metrics.capacity_violations  # the baseline overflows
        for outputs, metrics in (
            (result.outputs, result.metrics),
            (run.triples, run.metrics),
        ):
            assert tuple(outputs) == tuple(oracle.outputs)
            assert metrics == oracle.metrics

    @pytest.mark.parametrize("config", CONFIGS)
    def test_broadcast_baseline_engine_is_byte_identical(self, config):
        documents = generate_documents(24, 50, seed=11)
        engine = replace(
            _broadcast_engine(documents, 50, 0.02),
            config=config,
        )
        oracle = oracle_run(engine)
        result = engine.run()
        run = run_broadcast_baseline(documents, 50, 0.02)
        assert oracle.metrics.capacity_violations  # the baseline overflows
        for outputs, metrics in (
            (result.outputs, result.metrics),
            (run.pairs, run.metrics),
        ):
            assert tuple(outputs) == tuple(oracle.outputs)
            assert metrics == oracle.metrics
