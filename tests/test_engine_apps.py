"""End-to-end app runs through the engine's parallel backends."""

from __future__ import annotations

import pytest

from repro.apps.similarity_join import run_similarity_join
from repro.apps.skew_join import hash_join, naive_join, schema_skew_join
from repro.engine.config import ExecutionConfig
from repro.workloads.documents import all_pairs_above, generate_documents
from repro.workloads.relations import generate_join_workload

BACKENDS = ["serial", "threads", "processes"]


def on(backend: str) -> ExecutionConfig:
    """Two workers on *backend*."""
    return ExecutionConfig(backend=backend, num_workers=2)


class TestSimilarityJoinBackends:
    @pytest.fixture(scope="class")
    def documents(self):
        return generate_documents(30, 60, seed=21)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exact_pairs_on_every_backend(self, documents, backend):
        run = run_similarity_join(
            documents, 60, 0.15, config=on(backend)
        )
        assert run.pair_set() == all_pairs_above(documents, 0.15)
        assert run.metrics.max_reducer_load <= 60
        assert run.engine.backend == backend

    def test_backends_agree_pairwise(self, documents):
        runs = [
            run_similarity_join(documents, 60, 0.15, config=on(b))
            for b in BACKENDS
        ]
        assert runs[0].pairs == runs[1].pairs == runs[2].pairs
        assert runs[0].metrics == runs[1].metrics == runs[2].metrics

    def test_engine_metrics_track_phases(self, documents):
        run = run_similarity_join(
            documents, 60, 0.15, config=ExecutionConfig(backend="threads")
        )
        timings = run.engine.timings
        assert timings.map_seconds >= 0.0
        assert timings.reduce_seconds >= 0.0
        assert timings.total_seconds == pytest.approx(
            timings.map_seconds
            + timings.shuffle_seconds
            + timings.reduce_seconds
        )
        assert run.engine.bytes_moved == run.metrics.communication_cost


class TestSkewJoinBackends:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_join_workload(260, 260, 9, 1.4, size_jitter=1, seed=2)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exact_join_on_every_backend(self, workload, backend):
        x, y = workload
        truth = naive_join(x, y)
        run = schema_skew_join(x, y, 75, config=on(backend))
        assert run.triple_set() == truth
        assert run.metrics.max_reducer_load <= 75
        assert run.heavy_keys  # the workload is skewed enough to matter
        assert run.engine.backend == backend

    def test_schema_join_beats_hash_join_on_load(self, workload):
        x, y = workload
        baseline = hash_join(x, y, 75)
        run = schema_skew_join(x, y, 75, config=on("threads"))
        assert baseline.metrics.max_reducer_load > 75
        assert run.metrics.max_reducer_load <= 75

    def test_per_heavy_key_schemas_are_valid(self, workload):
        x, y = workload
        run = schema_skew_join(x, y, 75)
        assert run.schemas
        for schema in run.schemas.values():
            assert schema.verify().valid
