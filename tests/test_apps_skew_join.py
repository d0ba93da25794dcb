"""Integration tests: skew join and the hash-join baseline."""

from __future__ import annotations

from collections import Counter

import pytest

from repro import planner
from repro.apps import skew_join
from repro.apps.skew_join import hash_join, naive_join, schema_skew_join
from repro.engine.config import ExecutionConfig
from repro.workloads.relations import (
    Relation,
    Tuple2,
    generate_join_workload,
    heavy_hitters,
)


@pytest.fixture
def skewed_workload():
    return generate_join_workload(300, 300, 10, 1.2, seed=21)


class TestNaiveJoin:
    def test_cross_product_per_key(self):
        x = Relation("X", (Tuple2(1, 100), Tuple2(1, 101)))
        y = Relation("Y", (Tuple2(1, 200), Tuple2(2, 201)))
        assert naive_join(x, y) == {(100, 1, 200), (101, 1, 200)}

    def test_disjoint_keys_empty(self):
        x = Relation("X", (Tuple2(1, 0),))
        y = Relation("Y", (Tuple2(2, 0),))
        assert naive_join(x, y) == set()


class TestHashJoin:
    def test_correct_output(self, skewed_workload):
        x, y = skewed_workload
        run = hash_join(x, y, q=60)
        assert run.triple_set() == naive_join(x, y)

    def test_heavy_hitter_overloads_reducer(self, skewed_workload):
        x, y = skewed_workload
        run = hash_join(x, y, q=60)
        assert run.metrics.max_reducer_load > 60
        assert len(run.metrics.capacity_violations) >= 1

    def test_reducers_equal_active_keys(self, skewed_workload):
        x, y = skewed_workload
        run = hash_join(x, y, q=60)
        active = {t.key for t in x.tuples} | {t.key for t in y.tuples}
        assert run.metrics.num_reducers == len(active)


class TestSchemaSkewJoin:
    def test_correct_output(self, skewed_workload):
        x, y = skewed_workload
        run = schema_skew_join(x, y, q=60)
        assert run.triple_set() == naive_join(x, y)

    def test_exactly_once(self, skewed_workload):
        x, y = skewed_workload
        run = schema_skew_join(x, y, q=60)
        assert len(run.triples) == len(run.triple_set())

    def test_every_reducer_within_capacity(self, skewed_workload):
        x, y = skewed_workload
        run = schema_skew_join(x, y, q=60)
        assert run.metrics.max_reducer_load <= 60
        assert run.metrics.capacity_violations == ()

    def test_detects_heavy_keys(self, skewed_workload):
        x, y = skewed_workload
        run = schema_skew_join(x, y, q=60)
        assert run.heavy_keys == tuple(heavy_hitters(x, y, 60))
        assert len(run.heavy_keys) >= 1

    def test_schemas_are_valid(self, skewed_workload):
        x, y = skewed_workload
        run = schema_skew_join(x, y, q=60)
        for schema in run.schemas.values():
            assert schema.verify().valid

    def test_no_skew_reduces_to_hash_join_behaviour(self):
        x, y = generate_join_workload(60, 60, 30, 0.0, seed=22)
        run = schema_skew_join(x, y, q=200)
        assert run.heavy_keys == ()
        assert run.triple_set() == naive_join(x, y)

    def test_one_sided_heavy_key_produces_no_output(self):
        # Key 5 heavy in X only: no Y partners -> no join rows, no shipping.
        x = Relation("X", tuple(Tuple2(5, i) for i in range(50)))
        y = Relation("Y", (Tuple2(1, 900),))
        run = schema_skew_join(x, y, q=20)
        assert run.triple_set() == set()
        assert run.metrics.max_reducer_load <= 20

    def test_different_sized_tuples(self):
        x, y = generate_join_workload(
            150, 150, 6, 1.2, tuple_size=2, size_jitter=3, seed=23
        )
        run = schema_skew_join(x, y, q=80)
        assert run.triple_set() == naive_join(x, y)
        assert run.metrics.max_reducer_load <= 80

    def test_matches_hash_join_output(self, skewed_workload):
        x, y = skewed_workload
        assert (
            schema_skew_join(x, y, q=60).triple_set()
            == hash_join(x, y, q=60).triple_set()
        )

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_repeated_tuple_object_keeps_its_own_positions(self, backend):
        # One Tuple2 object listed six times is six tuples of the heavy
        # key: each occurrence needs its own position in the key's schema,
        # or the occurrences pile onto one reducer and overflow q.
        repeated = Tuple2(7, 1, 5)
        x = Relation("x", (repeated,) * 6 + (Tuple2(7, 2, 5),))
        y = Relation("y", tuple(Tuple2(7, 10 + j, 5) for j in range(6)))
        run = schema_skew_join(
            x, y, 20, config=ExecutionConfig(backend=backend)
        )
        assert run.heavy_keys == (7,)
        assert run.metrics.max_reducer_load <= 20
        expected = Counter(
            (tx.payload, 7, ty.payload) for tx in x.tuples for ty in y.tuples
        )
        assert Counter(run.triples) == expected

    def test_planned_config_resolves_from_the_plan(
        self, skewed_workload, monkeypatch
    ):
        # method="planned" sizes the engine from the job's plan: its
        # reducer count and communication equal the per-key sums the join
        # used to add up by hand (one reducer and every tuple's size per
        # light key, plus every heavy key's schema), so the resolved
        # ExecutionConfig is unchanged.
        x, y = skewed_workload
        resolved = []
        resolve = planner.resolve_execution_config

        def spy(env, **shape):
            config = resolve(env, **shape)
            resolved.append((env, shape, config))
            return config

        monkeypatch.setattr(
            skew_join.planner, "resolve_execution_config", spy
        )
        run = schema_skew_join(x, y, q=60, method="planned")
        (env, shape, config), = resolved
        heavy = set(run.heavy_keys)
        tuples = (*x.tuples, *y.tuples)
        light_keys = {t.key for t in tuples} - heavy
        hand_rolled = dict(
            num_reducers=max(
                1,
                len(light_keys)
                + sum(s.num_reducers for s in run.schemas.values()),
            ),
            communication_cost=sum(
                t.size for t in tuples if t.key not in heavy
            )
            + sum(s.communication_cost for s in run.schemas.values()),
        )
        assert run.schemas
        assert shape == hand_rolled
        assert config == resolve(env, **hand_rolled)
        assert run.triple_set() == naive_join(x, y)
