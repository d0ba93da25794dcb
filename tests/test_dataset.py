"""Tests for the Dataset abstraction and the engine's streaming data path."""

from __future__ import annotations

from functools import partial

import pytest

from repro.apps.similarity_join import run_similarity_join
from repro.dataset import Dataset, as_dataset, iter_chunks
from repro.engine.backends import BACKENDS
from repro.engine.config import ExecutionConfig
from repro.engine.engine import ExecutionEngine, execute_schema
from repro.exceptions import InvalidInstanceError
from repro.workloads.documents import document_dataset, generate_documents
from shuffle_heavy import fanout_plan, sum_reduce


class TestDataset:
    def test_list_backed_is_reiterable_with_length(self):
        ds = Dataset.from_list([1, 2, 3])
        assert ds.length == 3
        assert ds.is_materialized
        assert list(ds) == [1, 2, 3]
        assert list(ds) == [1, 2, 3]
        assert ds.materialize() == [1, 2, 3]

    def test_factory_backed_is_reiterable_and_lazy(self):
        ds = Dataset.from_factory(partial(range, 5), length=5)
        assert not ds.is_materialized
        assert list(ds) == list(range(5))
        assert list(ds) == list(range(5))

    def test_iterator_backed_is_single_use(self):
        ds = as_dataset(i for i in range(3))
        assert ds.length is None
        assert list(ds) == [0, 1, 2]
        with pytest.raises(InvalidInstanceError, match="single-use"):
            list(ds)

    def test_as_dataset_passthrough_and_coercions(self):
        ds = Dataset.from_list([1])
        assert as_dataset(ds) is ds
        assert as_dataset((1, 2)).length == 2
        assert as_dataset(range(4)).length == 4
        with pytest.raises(InvalidInstanceError):
            as_dataset(42)

    def test_constructor_rejects_ambiguous_sources(self):
        with pytest.raises(InvalidInstanceError):
            Dataset(items=[1], factory=list)
        with pytest.raises(InvalidInstanceError):
            Dataset()
        with pytest.raises(InvalidInstanceError):
            Dataset.from_factory(42)  # not callable

    def test_iter_chunks_shapes(self):
        assert list(iter_chunks(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]
        assert list(iter_chunks([], 3)) == []
        with pytest.raises(InvalidInstanceError):
            list(iter_chunks([1], 0))


class TestStreamingEngine:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_streaming_equals_materialized(self, backend):
        records = list(range(2000))
        baseline = ExecutionEngine(
            plan=fanout_plan(records), reduce_fn=sum_reduce
        ).run()
        streamed = ExecutionEngine(
            plan=fanout_plan(
                records,
                source=Dataset.from_factory(partial(range, 2000), length=2000),
            ),
            reduce_fn=sum_reduce,
            config=ExecutionConfig(backend=backend),
        ).run()
        assert streamed.outputs == baseline.outputs
        assert streamed.metrics == baseline.metrics

    def test_unknown_length_generator_stream(self):
        records = list(range(3000))
        baseline = ExecutionEngine(
            plan=fanout_plan(records), reduce_fn=sum_reduce
        ).run()
        result = ExecutionEngine(
            plan=fanout_plan(
                records, source=as_dataset(i for i in range(3000))
            ),
            reduce_fn=sum_reduce,
            config=ExecutionConfig(backend="threads"),
        ).run()
        assert result.outputs == baseline.outputs
        assert result.metrics.map_input_records == 3000
        # Unknown length -> fixed streaming chunks, so several map tasks.
        assert result.engine.num_map_tasks == 3

    def test_execute_schema_accepts_dataset(self, small_a2a):
        from repro.core.selector import solve_a2a

        schema = solve_a2a(small_a2a)

        def reduce_fn(key, values):
            yield key, sorted(i for i, _ in values)

        records = [f"r{i}" for i in range(small_a2a.m)]
        from_list = execute_schema(schema, records, reduce_fn)
        from_ds = execute_schema(
            schema,
            Dataset.from_factory(lambda: iter(records), length=len(records)),
            reduce_fn,
        )
        assert from_ds.outputs == from_list.outputs
        assert from_ds.metrics == from_list.metrics

    def test_execute_schema_dataset_count_mismatch(self, small_a2a):
        from repro.core.selector import solve_a2a

        schema = solve_a2a(small_a2a)

        def reduce_fn(key, values):
            yield key

        with pytest.raises(InvalidInstanceError, match="expects"):
            execute_schema(
                schema,
                Dataset.from_factory(lambda: iter(["only-one"])),
                reduce_fn,
            )


class TestWorkloadDatasets:
    def test_document_dataset_matches_generate_documents(self):
        eager = generate_documents(12, 40, seed=7)
        lazy = document_dataset(12, 40, seed=7)
        assert lazy.length == 12
        assert lazy.materialize() == eager
        # Re-iteration replays the identical corpus.
        assert list(lazy) == eager

    def test_document_dataset_unseeded_is_self_consistent(self):
        ds = document_dataset(6, 30)
        assert list(ds) == list(ds)

    def test_document_dataset_validates_vocabulary(self):
        with pytest.raises(InvalidInstanceError):
            document_dataset(4, 20, vocabulary_size=0)

    def test_similarity_join_accepts_dataset(self):
        docs = document_dataset(14, 50, seed=3)
        from_ds = run_similarity_join(docs, 50, 0.2, config=ExecutionConfig())
        from_list = run_similarity_join(
            generate_documents(14, 50, seed=3), 50, 0.2, config=ExecutionConfig()
        )
        assert from_ds.pairs == from_list.pairs
