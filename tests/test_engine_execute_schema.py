"""Tests for schema-driven execution: routing, capacity, and metrics."""

from __future__ import annotations

import pytest

from repro.core.instance import A2AInstance, X2YInstance
from repro.core.selector import solve_a2a, solve_x2y
from repro.engine import ExecutionConfig, canonical_meeting, execute_schema
from repro.engine.routing import a2a_memberships, x2y_memberships
from repro.exceptions import InvalidInstanceError


def collect_reduce(key, values):
    """Reducer that reports which input indices met at this reducer."""
    yield key, tuple(sorted(v[0] if len(v) == 2 else (v[0], v[1]) for v in values))


def pair_reduce_a2a(key, values):
    """Emit each A2A pair exactly once, from its canonical reducer."""
    indices = sorted(i for i, _ in values)
    for a_pos, i in enumerate(indices):
        for j in indices[a_pos + 1 :]:
            yield (i, j, key)


def cross_reduce_x2y(key, values):
    """Emit each X2Y cross pair from this reducer."""
    xs = sorted(i for side, i, _ in values if side == "x")
    ys = sorted(j for side, j, _ in values if side == "y")
    for i in xs:
        for j in ys:
            yield (i, j, key)


class TestA2AExecution:
    @pytest.fixture
    def schema(self, small_a2a):
        return solve_a2a(small_a2a).require_valid()

    def test_every_pair_meets_exactly_once_canonically(self, schema):
        records = [f"rec{i}" for i in range(schema.instance.m)]
        result = execute_schema(schema, records, pair_reduce_a2a)
        memberships = a2a_memberships(schema)
        canonical = {
            (i, j, canonical_meeting(memberships[i], memberships[j]))
            for i, j in schema.instance.pairs()
        }
        emitted_canonical = {
            (i, j, r)
            for i, j, r in result.outputs
            if canonical_meeting(memberships[i], memberships[j]) == r
        }
        assert emitted_canonical == canonical

    def test_replication_follows_schema(self, schema):
        records = [f"rec{i}" for i in range(schema.instance.m)]
        result = execute_schema(schema, records, collect_reduce)
        # Each input is shuffled to exactly its replication count of reducers.
        assert result.metrics.map_output_pairs == sum(schema.replication)

    def test_metrics_agree_with_schema_costs(self, schema):
        records = [f"rec{i}" for i in range(schema.instance.m)]
        result = execute_schema(schema, records, collect_reduce)
        assert result.metrics.communication_cost == schema.communication_cost
        assert result.metrics.max_reducer_load == schema.max_load
        nonempty = [members for members in schema.reducers if members]
        assert result.metrics.num_reducers == len(nonempty)
        # Per-reducer loads match the schema's load vector.
        for r, members in enumerate(schema.reducers):
            if members:
                assert result.metrics.reducer_loads[r] == schema.loads[r]

    def test_capacity_never_violated_for_valid_schema(self, schema):
        records = [f"rec{i}" for i in range(schema.instance.m)]
        result = execute_schema(schema, records, collect_reduce)
        assert result.metrics.capacity == schema.instance.q
        assert result.metrics.capacity_violations == ()

    def test_record_count_mismatch_rejected(self, schema):
        with pytest.raises(InvalidInstanceError, match="expects 5 records"):
            execute_schema(schema, ["only", "two"], collect_reduce)


class TestX2YExecution:
    @pytest.fixture
    def schema(self, small_x2y):
        return solve_x2y(small_x2y).require_valid()

    def test_every_cross_pair_meets(self, schema):
        x_records = [f"x{i}" for i in range(schema.instance.m)]
        y_records = [f"y{j}" for j in range(schema.instance.n)]
        result = execute_schema(schema, (x_records, y_records), cross_reduce_x2y)
        met = {(i, j) for i, j, _ in result.outputs}
        assert met == set(schema.instance.pairs())

    def test_metrics_agree_with_schema_costs(self, schema):
        x_records = [f"x{i}" for i in range(schema.instance.m)]
        y_records = [f"y{j}" for j in range(schema.instance.n)]
        result = execute_schema(schema, (x_records, y_records), cross_reduce_x2y)
        assert result.metrics.communication_cost == schema.communication_cost
        assert result.metrics.max_reducer_load == schema.max_load
        x_members, y_members = x2y_memberships(schema)
        expected_pairs = sum(len(m) for m in x_members) + sum(
            len(m) for m in y_members
        )
        assert result.metrics.map_output_pairs == expected_pairs

    def test_record_shape_rejected(self, schema):
        with pytest.raises(InvalidInstanceError, match="x_records, y_records"):
            execute_schema(schema, 7, cross_reduce_x2y)  # type: ignore[arg-type]

    def test_record_count_mismatch_rejected(self, schema):
        with pytest.raises(InvalidInstanceError, match="expects 3 X records"):
            execute_schema(schema, (["x0"], ["y0", "y1", "y2"]), cross_reduce_x2y)


class TestSchemaTypeDispatch:
    def test_non_schema_rejected(self):
        with pytest.raises(
            TypeError, match="A2ASchema, X2YSchema or MultiwaySchema"
        ):
            execute_schema("not a schema", [], collect_reduce)  # type: ignore[arg-type]

    def test_engine_metrics_present(self, small_a2a):
        schema = solve_a2a(small_a2a)
        records = [f"rec{i}" for i in range(schema.instance.m)]
        result = execute_schema(schema, records, collect_reduce, backend="threads")
        assert result.engine.backend == "threads"
        assert result.engine.num_map_tasks >= 1
        assert result.engine.timings.total_seconds >= 0.0


class TestExecutionSettings:
    @pytest.fixture
    def job(self):
        instance = A2AInstance([3, 5, 2, 7, 4, 6, 1, 8] * 3, q=24)
        return solve_a2a(instance), [f"rec{i}" for i in range(instance.m)]

    def test_individual_settings_build_the_config(self, job):
        schema, records = job
        budgeted = execute_schema(
            schema, records, collect_reduce, memory_budget=4
        )
        same = execute_schema(
            schema,
            records,
            collect_reduce,
            config=ExecutionConfig(memory_budget=4),
        )
        assert budgeted.metrics.spill_runs > 0
        assert budgeted.metrics == same.metrics
        assert budgeted.outputs == same.outputs

    def test_settings_beside_config_are_rejected(self, job):
        # Either form alone is fine; both at once used to drop the
        # individual settings silently (no spill despite the budget).
        schema, records = job
        with pytest.raises(
            InvalidInstanceError, match=r"\['backend', 'memory_budget'\]"
        ):
            execute_schema(
                schema,
                records,
                collect_reduce,
                backend="threads",
                memory_budget=4,
                config=ExecutionConfig(),
            )
