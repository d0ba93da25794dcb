"""Tests for schema-driven execution: routing, capacity, and metrics."""

from __future__ import annotations

import pickle
from functools import partial

import pytest

from repro.core.instance import A2AInstance, X2YInstance
from repro.core.schema import A2ASchema, X2YSchema
from repro.core.selector import solve_a2a, solve_x2y
from repro.dataset import Dataset
from repro.engine import (
    ExecutionConfig,
    ExecutionEngine,
    SchemaPlan,
    canonical_meeting,
    execute_schema,
)
from repro.engine.crossval import validate_against_simulator
from repro.engine.routing import (
    a2a_memberships,
    build_schema_plan,
    x2y_memberships,
)
from repro.exceptions import InvalidInstanceError, InvalidSchemaError
from repro.obs.trace import Tracer
from repro.planner import JobSpec, plan
from repro.workloads.distributions import sample_sizes

#: ``(backend, memory_budget)``: each backend in memory, plus serial
#: under a one-pair budget, so the runs also take the spill shuffle.
BACKEND_BUDGETS = [
    pytest.param("processes", None, id="processes"),
    pytest.param("serial", None, id="serial"),
    pytest.param("serial", 1, id="serial-spilled"),
]


def collect_reduce(key, values):
    """Reducer that reports which input indices met at this reducer."""
    yield key, tuple(sorted(v[0] if len(v) == 2 else (v[0], v[1]) for v in values))


def echo_reduce(key, values):
    """Emit the reducer id with every value it received, in order."""
    yield key, tuple(values)


def count_reduce(key, values):
    """How many records reached the reducer."""
    yield key, len(values)


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
        result = execute_schema(
            schema, records, collect_reduce, backend="processes"
        )
        assert result.engine.backend == "processes"
        assert result.engine.num_reduce_tasks >= 1
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
                backend="processes",
                memory_budget=4,
                config=ExecutionConfig(),
            )


class TestEmptyReducersAndPartitions:
    """Hand-built schemas with empty reducers, run on more reduce
    partitions than there are reducers: the outputs and job metrics equal
    the oracle's, and only non-empty partitions become reduce tasks."""

    @pytest.mark.parametrize(("backend", "budget"), BACKEND_BUDGETS)
    def test_a2a_schema_with_an_empty_reducer(self, backend, budget):
        # Reducer 2 lists its inputs out of record order.
        schema = A2ASchema(
            instance=A2AInstance([3, 4, 5], q=12),
            reducers=((0, 1, 2), (), (2, 1)),
        )
        engine_result, _, report = validate_against_simulator(
            schema,
            ["a", "b", "c"],
            echo_reduce,
            config=ExecutionConfig(
                backend=backend,
                num_workers=2,
                num_reduce_tasks=5,
                memory_budget=budget,
            ),
        )
        assert report.ok, report.summary()
        assert engine_result.outputs == [
            (0, ((0, "a"), (1, "b"), (2, "c"))),
            (2, ((1, "b"), (2, "c"))),
        ]
        assert engine_result.metrics.num_reducers == 2
        assert engine_result.engine.num_reduce_tasks == 2

    @pytest.mark.parametrize(("backend", "budget"), BACKEND_BUDGETS)
    def test_x2y_schema_with_an_empty_reducer(self, backend, budget):
        # Reducer 2 holds only an X input.
        schema = X2YSchema(
            instance=X2YInstance([2, 3], [4, 1], q=10),
            reducers=(((0, 1), (1, 0)), ((), ()), ((1,), ())),
        )
        engine_result, _, report = validate_against_simulator(
            schema,
            (["x0", "x1"], ["y0", "y1"]),
            echo_reduce,
            config=ExecutionConfig(
                backend=backend,
                num_workers=2,
                num_reduce_tasks=5,
                memory_budget=budget,
            ),
        )
        assert report.ok, report.summary()
        assert engine_result.outputs[0] == (
            0,
            (("x", 0, "x0"), ("x", 1, "x1"), ("y", 0, "y0"), ("y", 1, "y1")),
        )
        assert engine_result.metrics.num_reducers == 2
        assert engine_result.engine.num_reduce_tasks == 2

    @pytest.mark.parametrize(("backend", "budget"), BACKEND_BUDGETS)
    def test_all_empty_partitions(self, backend, budget):
        schema = A2ASchema(
            instance=A2AInstance([3, 4], q=12), reducers=((), ())
        )
        engine_result, _, report = validate_against_simulator(
            schema,
            ["a", "b"],
            echo_reduce,
            config=ExecutionConfig(
                backend=backend,
                num_workers=2,
                num_reduce_tasks=4,
                memory_budget=budget,
            ),
        )
        assert report.ok, report.summary()
        assert engine_result.outputs == []
        assert engine_result.engine.num_reduce_tasks == 0
        assert engine_result.engine.pairs_shipped == 0


class TestRoutedShuffle:
    """A schema job ships each record once per reduce partition."""

    def test_each_record_ships_once_per_partition(self, small_a2a):
        schema = solve_a2a(small_a2a)
        records = [f"rec{i}" for i in range(schema.instance.m)]
        tracer = Tracer()
        result = execute_schema(
            schema, records, collect_reduce, num_reduce_tasks=3, tracer=tracer
        )
        partitions = {
            i: {r % 3 for r in reducers}
            for i, reducers in enumerate(a2a_memberships(schema))
        }
        shipped = sum(len(parts) for parts in partitions.values())
        assert result.engine.pairs_shipped == shipped
        assert result.metrics.map_output_pairs == sum(schema.replication)
        (shuffle,) = [s for s in tracer.spans() if s.name == "shuffle"]
        assert shuffle.attrs["pairs"] == shipped

    def test_reducer_r_lands_in_partition_r_mod_p(self):
        schema = solve_a2a(A2AInstance([3, 5, 2, 7, 4, 6, 1, 8] * 3, q=24))
        routes, partition_members = build_schema_plan(
            schema, [None] * schema.instance.m
        ).routes(5)
        assert sum(map(len, partition_members)) == len(schema.reducers)
        for p, members_of_p in enumerate(partition_members):
            # Slot k of partition p is reducer p + 5k, in reducer order.
            for k, members in enumerate(members_of_p):
                r = p + k * 5
                assert r % 5 == p
                assert members == schema.reducers[r]
                for i in members:
                    assert p in routes[i][0]
        for i, (parts, fanout, comm) in enumerate(routes.values()):
            assert list(parts) == sorted(parts)
            assert fanout == schema.replication[i]
            assert comm == fanout * schema.instance.sizes[i]

    def test_benchmark_shape_ships_once_per_partition(self):
        """1200 uniform inputs at q=200 on 8 partitions: about 235
        reducers per input, but at most 8 copies of each record move."""
        sizes = sample_sizes("uniform", 1200, 200, seed=1)
        schema = plan(JobSpec.a2a(sizes, 200)).schema()
        result = execute_schema(
            schema, list(range(1200)), count_reduce, num_reduce_tasks=8
        )
        assert result.metrics.map_output_pairs == sum(
            map(len, schema.reducers)
        )
        assert result.engine.pairs_shipped == 9600
        assert result.engine.num_reduce_tasks == 8
        assert result.metrics.communication_cost == schema.communication_cost
        # The map task carries one small route per input, not the
        # per-input membership table.
        routes, _ = build_schema_plan(schema, list(range(1200))).routes(8)
        memberships = tuple(map(tuple, a2a_memberships(schema)))
        assert len(pickle.dumps(routes)) * 10 < len(pickle.dumps(memberships))


class TestUnknownSchemaMembers:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_member_outside_the_instance_is_a_typed_error(self, backend):
        # A hand-built schema is not validated against its instance; the
        # run names the unknown input instead of failing with a KeyError.
        instance = A2AInstance([1, 2, 3], q=10)
        schema = A2ASchema.from_lists(instance, [[0, 1], [0, instance.m]])
        with pytest.raises(InvalidSchemaError, match="reducer 1 lists 3"):
            execute_schema(
                schema, ["a", "b", "c"], count_reduce, backend=backend
            )


class TestMemberListPlans:
    """``SchemaPlan.from_members``: the typed errors at its input surface,
    and the wrapping every plan shares."""

    def test_member_index_out_of_range_rejected(self):
        for bad in (3, -1, "0"):
            with pytest.raises(InvalidInstanceError, match="outside 0..2"):
                SchemaPlan.from_members(
                    ["a", "b", "c"], [1, 1, 1], [[0, 1], [2, bad]], capacity=None
                )

    def test_duplicate_member_within_a_reducer_rejected(self):
        with pytest.raises(InvalidInstanceError, match="more than once"):
            SchemaPlan.from_members(
                ["a", "b", "c"], [1, 1, 1], [[0, 1], [2, 1, 2]], capacity=None
            )
        # The same input in several reducers is what replication means.
        SchemaPlan.from_members(
            ["a", "b", "c"], [1, 1, 1], [[0, 1], [1, 2]], capacity=None
        )

    def test_record_count_must_match_the_sizes(self):
        with pytest.raises(InvalidInstanceError, match="expects 3 records"):
            SchemaPlan.from_members(["a", "b"], [1, 1, 1], [], capacity=None)
        with pytest.raises(InvalidInstanceError, match="expects 3 records"):
            SchemaPlan.from_members(
                Dataset.from_factory(partial(iter, ["a"]), length=1),
                [1, 1, 1],
                [],
                capacity=None,
            )
        # A stream of unknown length is counted as it flows.
        unsized = SchemaPlan.from_members(
            Dataset.from_factory(partial(iter, "abcd")),
            [1, 1, 1],
            [[0, 1, 2]],
            capacity=None,
        )
        with pytest.raises(InvalidInstanceError, match="got more"):
            ExecutionEngine(plan=unsized, reduce_fn=count_reduce).run()

    def test_records_wrapped_keyed_and_sized_like_a2a(self):
        plan = SchemaPlan.from_members(
            ["a", "b", "c"], [4, 5, 6], [[2, 0], [], [1]], capacity=9
        )
        assert plan.records == [(0, "a"), (1, "b"), (2, "c")]
        assert [plan.key_of(r) for r in plan.records] == [0, 1, 2]
        assert [plan.size_of(r) for r in plan.records] == [4, 5, 6]
        assert plan.members == ((2, 0), (), (1,))
        assert plan.capacity == 9
        assert plan.communication_cost == 6 + 4 + 5
        result = ExecutionEngine(
            plan=plan, reduce_fn=collect_reduce, strict_capacity=False
        ).run()
        # Values arrive in record order; the empty reducer is skipped.
        assert result.outputs == [(0, (0, 2)), (2, (1,))]
        assert result.metrics.reducer_loads == {0: 10, 2: 5}
        assert result.metrics.capacity_violations == (0,)
