"""End-to-end tests for the shuffle's data plane across backends.

The parent routes every record to its reduce partitions, and on the
``processes`` backend each reduce task's payload crosses the pool's
pipes as one pickle; no shuffle data is block-encoded, so the engine's
data-plane counters read 0.  Outputs and ``JobMetrics`` must be
byte-identical to the serial backend, in memory, under a
``memory_budget``, and under fault injection with real worker kills, and
a run must leave no worker process or spill file behind.

Reduce functions are module-level so they pickle on ``processes``.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine.backends import ProcessBackend
from repro.engine.config import ExecutionConfig
from repro.faults import RetryPolicy
from repro.obs.store import ObservationRecord

from word_count import word_engine

#: Pinned geometry so every backend decomposes work identically: one
#: reduce task per word, enough tasks for the chaos spec to hit one.
GEOMETRY = dict(num_reduce_tasks=10, num_workers=2)

RECORDS = [
    "the quick brown fox",
    "the lazy dog",
    "the quick dog jumps",
    "a brown dog",
    "fox and dog and fox",
    "jumps over the lazy fox",
    "quick brown jumps",
    "dog and fox",
]


def _engine(backend, **settings):
    return word_engine(
        RECORDS,
        config=ExecutionConfig(backend=backend, **GEOMETRY, **settings),
    )


class TestBlockShuffleCrossval:
    @pytest.fixture(scope="class")
    def reference(self):
        return _engine("serial").run()

    @pytest.mark.parametrize("shared_pool", [False, True])
    def test_processes_byte_identical_and_leak_free(
        self, reference, shared_pool
    ):
        # False: a named backend, whose pool lives for one run; True: a
        # caller-owned backend, whose pool outlives the run.
        before = set(multiprocessing.active_children())
        if shared_pool:
            with ProcessBackend(max_workers=2) as backend:
                result = _engine(backend).run()
        else:
            result = _engine("processes").run()
        assert result.outputs == reference.outputs
        assert result.metrics == reference.metrics
        assert result.engine.num_map_tasks == 0
        assert result.engine.encoded_bytes == 0
        assert result.engine.encode_seconds == 0.0
        assert result.engine.decode_seconds == 0.0
        assert result.engine.shm_segments == 0
        assert set(multiprocessing.active_children()) <= before

    def test_serial_does_not_encode(self, reference):
        result = _engine("serial").run()
        assert result.outputs == reference.outputs
        assert result.metrics == reference.metrics
        assert result.engine.encoded_bytes == 0

    def test_fault_injected_run_is_identical_and_leak_free(self, tmp_path):
        policy = RetryPolicy(
            max_attempts=6, backoff_base=0.001, backoff_max=0.01
        )
        for budget in (None, 4):
            reference = _engine("serial", memory_budget=budget).run()
            result = _engine(
                "processes",
                retry=policy,
                faults="crash=0.2,kill=0.05,seed=7",
                memory_budget=budget,
                spill_dir=str(tmp_path),
            ).run()
            assert result.outputs == reference.outputs
            assert result.metrics == reference.metrics
            assert result.engine.task_retries >= 1
        assert list(tmp_path.iterdir()) == []

    def test_spilled_run_is_identical_and_leak_free(self, tmp_path):
        reference = _engine("serial", memory_budget=4).run()
        result = _engine(
            "processes", memory_budget=4, spill_dir=str(tmp_path)
        ).run()
        assert result.outputs == reference.outputs
        assert result.metrics == reference.metrics
        assert result.metrics.spilled_bytes > 0
        assert list(tmp_path.iterdir()) == []


class TestMetricsSurfacing:
    def test_engine_metrics_row_has_data_plane_columns(self):
        result = _engine("serial").run()
        row = result.engine.as_row()
        for column in ("pairs_shipped", "bytes_moved", "retries"):
            assert column in row
        # Fields that always read 0 stay on EngineMetrics for the bench
        # harness but are not table columns.
        for column in (
            "map_tasks", "encoded_bytes", "encode_s", "decode_s",
            "shm_segments",
        ):
            assert column not in row

    def test_observation_record_defaults_are_backwards_compatible(self):
        # Log lines written before the data-plane fields existed, and
        # while they did, both load cleanly; the retired fields drop.
        retired = dict(
            encoded_bytes=64, encode_seconds=0.1, decode_seconds=0.1
        )
        for extra in ({}, retired):
            record = ObservationRecord.from_dict(
                {"job_id": "j1", "fingerprint": "f1", "cache_hit": False,
                 **extra}
            )
            assert record.job_id == "j1"
            for name in retired:
                assert not hasattr(record, name)

    def test_observation_record_carries_engine_counters(self):
        result = _engine("serial").run()

        record = ObservationRecord.build(
            job_id="j1",
            fingerprint="f1",
            cache_hit=False,
            wall_seconds=0.5,
            metrics=result.metrics,
            engine=result.engine,
        )
        assert record.backend == result.engine.backend
        assert record.workers == result.engine.num_workers
        assert record.map_seconds == result.engine.timings.map_seconds
        assert record.reduce_seconds == result.engine.timings.reduce_seconds
        assert record.task_retries == result.engine.task_retries
