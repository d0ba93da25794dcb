"""Cross-validation: all five apps through JobSpec/plan/run vs direct paths.

Each application used to call ``solve_a2a``/``solve_x2y``/
``multiway_bin_combining`` directly and wire its own MapReduce job; it
now builds a :class:`~repro.planner.spec.JobSpec`, plans it, and runs on
the engine (through :func:`repro.planner.run` for single-schema apps).
These tests reimplement the pre-refactor direct-call paths as
:class:`oracle.MapReduceJob` oracles and assert the apps
produce identical outputs — on the default path (the serial engine), on
an explicitly configured process-pool engine, and under full cost-based
planning (``method="planned"``, where a *different but valid* schema
must still yield the same application output).
"""

from __future__ import annotations

import pytest

from repro.apps.common_friends import run_common_friends
from repro.apps.similarity_join import run_similarity_join
from repro.apps.skew_join import naive_join, schema_skew_join
from repro.apps.tensor_product import distributed_outer_product
from repro.apps.threeway_similarity import (
    all_triples_above,
    run_threeway_similarity,
)
from repro.core.instance import A2AInstance, X2YInstance
from repro.core.multiway import MultiwayInstance, multiway_bin_combining
from repro.core.selector import solve_a2a, solve_x2y
from repro.engine.config import ExecutionConfig
from repro.engine.routing import (
    a2a_memberships,
    canonical_meeting,
    x2y_memberships,
)
from repro.workloads.documents import all_pairs_above, generate_documents, jaccard
from repro.workloads.relations import generate_join_workload
from repro.workloads.social import common_friends, generate_users
from repro.workloads.vectors import generate_block_vector

from oracle import MapReduceJob

POOLED = ExecutionConfig(backend="processes", num_workers=2)

#: The engine settings the apps must agree on: serial, serial over several
#: reduce partitions, and a two-worker process pool.
CONFIGS = [
    pytest.param(ExecutionConfig(), id="serial"),
    pytest.param(ExecutionConfig(num_reduce_tasks=4), id="serial-partitioned"),
    pytest.param(POOLED, id="processes"),
]


def direct_similarity_pairs(documents, q, threshold):
    """The seed repo's simulator path: solve directly, wire the job by hand,
    with per-pair canonical meetings as the ownership reference."""
    instance = A2AInstance([d.size for d in documents], q)
    schema = solve_a2a(instance, "auto")
    memberships = a2a_memberships(schema)
    position = {id(doc): i for i, doc in enumerate(documents)}

    def map_fn(doc):
        for r in memberships[position[id(doc)]]:
            yield r, doc

    def reduce_fn(key, docs):
        by_position = sorted(docs, key=lambda d: position[id(d)])
        for a_idx, doc_a in enumerate(by_position):
            i = position[id(doc_a)]
            for doc_b in by_position[a_idx + 1:]:
                j = position[id(doc_b)]
                if canonical_meeting(memberships[i], memberships[j]) != key:
                    continue
                similarity = jaccard(doc_a, doc_b)
                if similarity >= threshold:
                    yield (doc_a.doc_id, doc_b.doc_id, similarity)

    job = MapReduceJob(
        map_fn=map_fn, reduce_fn=reduce_fn, reducer_capacity=q, strict_capacity=True
    )
    return tuple(job.run(documents).outputs)


class TestSimilarityJoin:
    Q, THRESHOLD = 60, 0.15

    @pytest.fixture(scope="class")
    def documents(self):
        return generate_documents(24, self.Q, seed=31)

    def test_default_path_matches_direct_call(self, documents):
        direct = direct_similarity_pairs(documents, self.Q, self.THRESHOLD)
        run = run_similarity_join(documents, self.Q, self.THRESHOLD)
        assert run.pairs == direct
        assert run.engine.backend == "serial"

    def test_engine_path_matches_direct_call(self, documents):
        direct = direct_similarity_pairs(documents, self.Q, self.THRESHOLD)
        run = run_similarity_join(
            documents, self.Q, self.THRESHOLD, config=POOLED
        )
        assert run.pairs == direct
        assert run.engine.backend == "processes"

    def test_planned_mode_same_output_set(self, documents):
        truth = all_pairs_above(documents, self.THRESHOLD)
        run = run_similarity_join(
            documents, self.Q, self.THRESHOLD, method="planned"
        )
        assert run.pair_set() == truth
        assert run.plan is not None and run.plan.mode == "planned"
        assert run.engine is not None  # planned mode executes on the engine

    def test_planned_mode_runs_serial_like_a_pooled_run(self, documents):
        # A run without a config resolves to serial; a pooled run of the
        # same plan over many reduce partitions gives the same outputs and
        # job metrics.
        planned = run_similarity_join(
            documents, self.Q, self.THRESHOLD, method="planned"
        )
        pooled = run_similarity_join(
            documents,
            self.Q,
            self.THRESHOLD,
            method="planned",
            config=ExecutionConfig(
                backend="processes", num_workers=2, num_reduce_tasks=8
            ),
        )
        assert planned.engine.backend == "serial"
        assert planned.engine.num_reduce_tasks == 1
        assert pooled.engine.num_reduce_tasks > 1
        assert planned.pairs == pooled.pairs
        assert planned.metrics == pooled.metrics

    def test_plan_is_attached_and_consistent(self, documents):
        run = run_similarity_join(documents, self.Q, self.THRESHOLD)
        assert run.plan is not None
        assert run.plan.schema().num_reducers == run.schema.num_reducers


class TestSkewJoin:
    Q = 120

    @pytest.fixture(scope="class")
    def relations(self):
        return generate_join_workload(300, 300, 10, 1.3, seed=32)

    def test_default_path_matches_ground_truth(self, relations):
        x, y = relations
        run = schema_skew_join(x, y, self.Q)
        assert run.triple_set() == naive_join(x, y)
        assert run.heavy_keys  # the workload must actually exercise schemas

    def test_engine_and_planned_modes_agree(self, relations):
        x, y = relations
        default = schema_skew_join(x, y, self.Q)
        engine = schema_skew_join(x, y, self.Q, config=POOLED)
        planned = schema_skew_join(x, y, self.Q, method="planned")
        assert engine.triple_set() == default.triple_set()
        assert planned.triple_set() == default.triple_set()
        assert planned.engine is not None
        assert planned.plans and all(
            p.mode == "planned" for p in planned.plans.values()
        )

    def test_planned_schemas_respect_capacity(self, relations):
        x, y = relations
        run = schema_skew_join(x, y, self.Q, method="planned")
        assert run.metrics.max_reducer_load <= self.Q
        assert run.metrics.capacity_violations == ()


class TestCommonFriends:
    Q = 40

    @pytest.fixture(scope="class")
    def users(self):
        return generate_users(16, self.Q, seed=33)

    def direct_pairs(self, users):
        """The seed repo's canonical_meeting closure path."""
        instance = A2AInstance([u.size for u in users], self.Q)
        schema = solve_a2a(instance, "auto")
        memberships = a2a_memberships(schema)
        position = {id(user): i for i, user in enumerate(users)}

        def map_fn(user):
            for r in memberships[position[id(user)]]:
                yield r, user

        def reduce_fn(key, members):
            ordered = sorted(members, key=lambda u: position[id(u)])
            for a_pos, user_a in enumerate(ordered):
                i = position[id(user_a)]
                for user_b in ordered[a_pos + 1:]:
                    j = position[id(user_b)]
                    if canonical_meeting(memberships[i], memberships[j]) != key:
                        continue
                    yield (
                        user_a.user_id,
                        user_b.user_id,
                        common_friends(user_a, user_b),
                    )

        job = MapReduceJob(
            map_fn=map_fn,
            reduce_fn=reduce_fn,
            reducer_capacity=self.Q,
            strict_capacity=True,
        )
        return tuple(job.run(users).outputs)

    def test_default_path_matches_direct_call(self, users):
        assert run_common_friends(users, self.Q).pairs == self.direct_pairs(users)

    def test_engine_path_matches_direct_call(self, users):
        run = run_common_friends(users, self.Q, config=POOLED)
        assert run.pairs == self.direct_pairs(users)
        assert run.engine.backend == "processes"

    @pytest.mark.parametrize("config", CONFIGS)
    def test_backends_agree(self, users, config):
        run = run_common_friends(users, self.Q, config=config)
        assert dict(run.as_dict()) == dict(
            run_common_friends(users, self.Q).as_dict()
        )

    def test_planned_mode_same_output_dict(self, users):
        default = run_common_friends(users, self.Q)
        planned = run_common_friends(users, self.Q, method="planned")
        assert planned.as_dict() == default.as_dict()
        assert planned.engine is not None


class TestTensorProduct:
    Q = 30

    @pytest.fixture(scope="class")
    def vectors(self):
        u = generate_block_vector("u", 6, self.Q, seed=34)
        v = generate_block_vector("v", 5, self.Q, seed=35)
        return u, v

    def direct_entries(self, u, v):
        """The seed repo's closure path with per-pair canonical meetings."""
        instance = X2YInstance(
            [b.size for b in u.blocks], [b.size for b in v.blocks], self.Q
        )
        schema = solve_x2y(instance, "auto")
        x_members, y_members = x2y_memberships(schema)

        def map_fn(record):
            side, block = record
            members = x_members if side == "u" else y_members
            for r in members[block.block_id]:
                yield r, (side, block)

        def reduce_fn(key, values):
            u_blocks = [b for side, b in values if side == "u"]
            v_blocks = [b for side, b in values if side == "v"]
            for ub in u_blocks:
                for vb in v_blocks:
                    if (
                        canonical_meeting(
                            x_members[ub.block_id], y_members[vb.block_id]
                        )
                        != key
                    ):
                        continue
                    for a, u_val in enumerate(ub.values):
                        for b, v_val in enumerate(vb.values):
                            yield (ub.offset + a, vb.offset + b, u_val * v_val)

        job = MapReduceJob(
            map_fn=map_fn,
            reduce_fn=reduce_fn,
            size_of=lambda value: value[1].size,
            reducer_capacity=self.Q,
            strict_capacity=True,
        )
        records = [("u", b) for b in u.blocks] + [("v", b) for b in v.blocks]
        return tuple(job.run(records).outputs)

    def test_default_path_matches_direct_call(self, vectors):
        u, v = vectors
        run = distributed_outer_product(u, v, self.Q)
        assert run.entries == self.direct_entries(u, v)

    def test_engine_path_same_matrix(self, vectors):
        u, v = vectors
        default = distributed_outer_product(u, v, self.Q)
        engine = distributed_outer_product(u, v, self.Q, config=POOLED)
        assert engine.dense() == default.dense()
        assert engine.engine.backend == "processes"

    @pytest.mark.parametrize("config", CONFIGS)
    def test_backends_agree(self, vectors, config):
        u, v = vectors
        run = distributed_outer_product(u, v, self.Q, config=config)
        assert sorted(run.entries) == sorted(self.direct_entries(u, v))
        assert run.engine is not None

    def test_planned_mode_same_matrix(self, vectors):
        u, v = vectors
        default = distributed_outer_product(u, v, self.Q)
        planned = distributed_outer_product(u, v, self.Q, method="planned")
        assert planned.dense() == default.dense()
        assert planned.plan is not None and planned.plan.mode == "planned"


class TestThreewaySimilarity:
    Q, THRESHOLD = 36, 0.05

    @pytest.fixture(scope="class")
    def documents(self):
        return generate_documents(10, self.Q // 3, seed=36)

    def test_matches_ground_truth_and_direct_schema(self, documents):
        run = run_threeway_similarity(documents, self.Q, self.THRESHOLD)
        assert run.triple_set() == all_triples_above(documents, self.THRESHOLD)
        direct = multiway_bin_combining(
            MultiwayInstance([d.size for d in documents], self.Q, 3)
        )
        assert run.schema.reducers == direct.reducers
        assert run.plan is not None and run.plan.spec.kind == "multiway"
