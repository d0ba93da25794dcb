"""Unit tests for the simulated MapReduce job."""

from __future__ import annotations

import pytest

from repro.engine.routing import default_size
from repro.exceptions import CapacityExceededError

from oracle import MapReduceJob


def word_count_job(**kwargs):
    """Classic word count: the simplest end-to-end sanity workload."""
    return MapReduceJob(
        map_fn=lambda line: ((word, 1) for word in line.split()),
        reduce_fn=lambda word, counts: [(word, sum(counts))],
        size_of=lambda value: 1,
        **kwargs,
    )


class TestDefaultSize:
    def test_prefers_size_attribute(self):
        class Sized:
            size = 7

        assert default_size(Sized()) == 7

    def test_falls_back_to_len(self):
        assert default_size([1, 2, 3]) == 3

    def test_scalar_costs_one(self):
        assert default_size(42) == 1

    def test_empty_container_costs_one(self):
        assert default_size([]) == 1

    def test_ignores_nonpositive_size_attribute(self):
        class Weird:
            size = -5

        assert default_size(Weird()) == 1


class TestMapReduceJob:
    def test_word_count(self):
        job = word_count_job()
        result = job.run(["a b a", "b c"])
        assert dict(result.outputs) == {"a": 2, "b": 2, "c": 1}

    def test_metrics_counts(self):
        job = word_count_job()
        result = job.run(["a b a", "b c"])
        metrics = result.metrics
        assert metrics.map_input_records == 2
        assert metrics.map_output_pairs == 5
        assert metrics.communication_cost == 5
        assert metrics.num_reducers == 3
        assert metrics.output_records == 3

    def test_reducer_loads_per_key(self):
        job = word_count_job()
        metrics = job.run(["a b a"]).metrics
        assert metrics.reducer_loads == {"a": 2, "b": 1}
        assert metrics.max_reducer_load == 2

    def test_deterministic_key_order(self):
        job = MapReduceJob(
            map_fn=lambda x: [(x % 3, x)],
            reduce_fn=lambda k, vs: [(k, sorted(vs))],
            size_of=lambda v: 1,
        )
        first = job.run(range(10)).outputs
        second = job.run(range(10)).outputs
        assert first == second
        assert [k for k, _ in first] == [0, 1, 2]

    def test_strict_capacity_raises(self):
        job = word_count_job(reducer_capacity=1, strict_capacity=True)
        with pytest.raises(CapacityExceededError) as excinfo:
            job.run(["a a a"])
        assert excinfo.value.load == 3
        assert excinfo.value.capacity == 1

    def test_nonstrict_capacity_records_violations(self):
        job = word_count_job(reducer_capacity=1, strict_capacity=False)
        result = job.run(["a a a", "b"])
        assert result.metrics.capacity_violations == ("a",)
        # The reducer still ran.
        assert dict(result.outputs)["a"] == 3

    def test_no_capacity_no_violations(self):
        job = word_count_job()
        assert job.run(["a a a"]).metrics.capacity_violations == ()

    def test_empty_input(self):
        result = word_count_job().run([])
        assert result.outputs == []
        assert result.metrics.num_reducers == 0
        assert result.metrics.max_reducer_load == 0

    def test_custom_size_function_drives_comm_cost(self):
        job = MapReduceJob(
            map_fn=lambda x: [("k", x)],
            reduce_fn=lambda k, vs: [],
            size_of=lambda v: v * 10,
        )
        metrics = job.run([1, 2]).metrics
        assert metrics.communication_cost == 30
        assert metrics.reducer_loads["k"] == 30

    def test_mapper_can_emit_nothing(self):
        job = MapReduceJob(
            map_fn=lambda x: [],
            reduce_fn=lambda k, vs: [k],
        )
        result = job.run([1, 2, 3])
        assert result.outputs == []
        assert result.metrics.map_input_records == 3

    def test_metrics_as_row(self):
        row = word_count_job().run(["a b"]).metrics.as_row()
        assert row["reducers"] == 2
        assert row["comm_cost"] == 2


class TestJobMetricsDerived:
    def test_mean_and_skew(self):
        job = word_count_job()
        metrics = job.run(["a a a b"]).metrics
        assert metrics.mean_reducer_load == pytest.approx(2.0)
        assert metrics.load_skew == pytest.approx(1.5)

    def test_empty_job_zero_stats(self):
        metrics = word_count_job().run([]).metrics
        assert metrics.mean_reducer_load == 0.0
        assert metrics.load_skew == 0.0
