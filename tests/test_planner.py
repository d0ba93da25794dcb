"""Planner pipeline tests: JobSpec -> Plan -> run.

Covers spec validation, the three planning modes (fast path, pinned,
full cost-based), objective-driven choice, the exact-solver size gate,
execution-config resolution rules, Plan JSON round-tripping, and the
run stage funneling into the engine.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import A2AInstance, X2YInstance
from repro.core.selector import A2A_METHODS, X2Y_METHODS
from repro.engine.config import ExecutionConfig
from repro.exceptions import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    ReproError,
    UnknownMethodError,
)
from repro.planner import (
    OBJECTIVES,
    Environment,
    JobSpec,
    Plan,
    plan,
    resolve_execution_config,
    run,
)
from repro.planner.plan import CandidateScore
from repro.planner.planner import (
    EXACT_A2A_INPUT_LIMIT,
    EXACT_X2Y_PAIR_LIMIT,
    MIN_MEMORY_BUDGET,
    MULTIWAY_METHODS,
    _skip_reason,
    score_schema,
)
from repro.service.service import collect_reduce

from oracle import validate_against_simulator

ENV = Environment(num_workers=2, memory_bytes=1 << 30)


class TestJobSpec:
    def test_a2a_constructor_coerces_sized_objects(self):
        class Sized:
            def __init__(self, size):
                self.size = size

        spec = JobSpec.a2a([Sized(3), 5, Sized(2)], q=10)
        assert spec.sizes == (3, 5, 2)
        assert spec.kind == "a2a"

    def test_numpy_integer_sizes_keep_their_values(self):
        # numpy scalars are not Python ints and their .size attribute is
        # the element count (always 1); coercion must go through
        # __index__ so the actual values survive.
        numpy = pytest.importorskip("numpy")
        spec = JobSpec.a2a(numpy.array([3, 5, 7]), q=12)
        assert spec.sizes == (3, 5, 7)

    def test_x2y_requires_both_sides(self):
        with pytest.raises(InvalidInstanceError):
            JobSpec(kind="x2y", q=10, x_sizes=(3,))

    def test_a2a_rejects_side_sizes(self):
        with pytest.raises(InvalidInstanceError):
            JobSpec(kind="a2a", q=10, sizes=(3,), x_sizes=(1,))

    def test_multiway_requires_arity(self):
        with pytest.raises(InvalidInstanceError):
            JobSpec(kind="multiway", q=10, sizes=(2, 2))
        spec = JobSpec.multiway([2, 2, 2], q=9, r=3)
        assert spec.r == 3

    @pytest.mark.parametrize(
        "build",
        [
            lambda: JobSpec.a2a([], q=8),
            lambda: JobSpec.x2y([], [3], q=8),
            lambda: JobSpec.x2y([3], [], q=8),
            lambda: JobSpec.multiway([], q=8, r=3),
            lambda: JobSpec.from_dict({"kind": "a2a", "q": 8, "sizes": []}),
        ],
    )
    def test_spec_without_inputs_is_rejected(self, build):
        with pytest.raises(InvalidInstanceError, match="at least one input"):
            build()

    def test_unknown_kind_and_objective(self):
        with pytest.raises(InvalidInstanceError):
            JobSpec(kind="nope", q=10, sizes=(3,))
        with pytest.raises(InvalidInstanceError):
            JobSpec.a2a([3], q=10, objective="max-profit")

    def test_makespan_objective_is_rejected(self):
        # Planned jobs run on one serial partition, so there is no worker
        # pool to schedule reducer loads on: two objectives remain.
        remaining = re.escape("['min-reducers', 'min-communication']")
        with pytest.raises(InvalidInstanceError, match=remaining):
            JobSpec.a2a([3, 5], q=10, objective="min-makespan")

    def test_spec_dict_round_trip(self):
        for spec in [
            JobSpec.a2a([3, 5], q=10, objective="min-communication", method=None),
            JobSpec.x2y([4], [3], q=10, method="greedy"),
            JobSpec.multiway([2, 2, 2], q=9, r=3),
        ]:
            assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_instance_kinds(self):
        assert isinstance(JobSpec.a2a([3], q=5).instance(), A2AInstance)
        assert isinstance(JobSpec.x2y([3], [2], q=6).instance(), X2YInstance)


class TestPlanModes:
    def test_full_planning_picks_objective_argmin(self):
        spec = JobSpec.a2a([3, 5, 2, 7, 4], q=12, method=None)
        planned = plan(spec)
        scored = [c for c in planned.candidates if c.status == "scored"]
        best = min(scored, key=lambda c: c.objective_value)
        assert planned.chosen_score.objective_value == best.objective_value
        assert planned.mode == "planned"
        assert planned.schema().num_reducers == planned.chosen_score.num_reducers

    @pytest.mark.parametrize(
        "objective,metric",
        [
            ("min-reducers", "num_reducers"),
            ("min-communication", "communication_cost"),
        ],
    )
    def test_objective_value_tracks_metric(self, objective, metric):
        spec = JobSpec.x2y([9, 2, 3], [5, 3], q=17, method=None, objective=objective)
        planned = plan(spec)
        for candidate in planned.candidates:
            if candidate.status == "scored":
                assert candidate.objective_value == pytest.approx(
                    float(getattr(candidate, metric))
                )

    def test_chosen_within_ten_percent_of_best_candidate(self):
        # The acceptance bar is 10% of the best candidate the planner
        # enumerated; it picks the argmin, so the regret is exactly zero
        # on every shape (uniform, mixed, big/small, X2Y, multiway).
        shapes = [
            JobSpec.a2a([3, 5, 2, 7, 4], q=12),
            JobSpec.a2a([4] * 8, q=12),
            JobSpec.a2a([4] * 12, q=12),
            JobSpec.a2a([3, 5, 2, 7, 4, 6, 1, 8], q=16),
            JobSpec.a2a([11, 3, 4, 5, 2, 6], q=20),
            JobSpec.x2y([9, 2, 3], [5, 3], q=17),
            JobSpec.x2y([2] * 6, [2] * 8, q=8),
            JobSpec.x2y([9, 2, 3, 1], [5, 3, 4], q=17),
            JobSpec.multiway([2] * 8, q=9, r=3),
        ]
        for shape in shapes:
            for objective in OBJECTIVES:
                spec = replace(shape, method=None, objective=objective)
                planned = plan(spec)
                best = min(
                    c.objective_value
                    for c in planned.candidates
                    if c.status == "scored"
                )
                assert planned.chosen_score.objective_value == best, spec

    def test_pinned_method(self):
        spec = JobSpec.a2a([3, 5, 2], q=12, method="greedy")
        planned = plan(spec)
        assert planned.mode == "pinned"
        assert planned.chosen == "greedy"
        assert [c.method for c in planned.candidates] == ["greedy"]

    def test_pinned_unknown_method_lists_choices(self):
        with pytest.raises(UnknownMethodError) as error:
            plan(JobSpec.a2a([3, 5], q=12, method="magic"))
        message = str(error.value)
        assert "unknown A2A method 'magic'" in message
        assert "bin_pairing" in message and "exact" in message

    def test_fast_path_mode_records_rule(self):
        planned = plan(JobSpec.a2a([4] * 6, q=8))
        assert planned.mode == "fast-path"
        assert planned.rationale.startswith("fast path:")
        assert {c.method for c in planned.candidates} == {
            "equal_grouping",
            "grouped_covering",
        }

    def test_infeasible_spec_raises(self):
        with pytest.raises(InfeasibleInstanceError):
            plan(JobSpec.a2a([7, 8], q=10, method=None))

    def test_failed_candidates_are_recorded_not_fatal(self):
        planned = plan(JobSpec.a2a([3, 5, 2, 7, 4], q=12, method=None))
        failed = {c.method for c in planned.candidates if c.status == "failed"}
        # equal-sized methods cannot run on mixed sizes but must not kill
        # the plan.
        assert "equal_grouping" in failed
        for candidate in planned.candidates:
            if candidate.status == "failed":
                assert candidate.reason

    def test_multiway_planning(self):
        spec = JobSpec.multiway([2, 2, 2, 2, 2], q=9, r=3, method=None)
        planned = plan(spec)
        assert planned.chosen == "bin_combining"
        assert planned.schema().verify() == (True, "valid")
        assert "num_reducers" in planned.lower_bounds


class TestWorkerCountIndependence:
    """Every job run without a config runs serially, so the config
    resolved for a plan may not depend on how many workers the
    environment reports."""

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("mode", ["planned", "fast-path", "pinned"])
    @pytest.mark.parametrize(
        "shape,pinned",
        [
            (JobSpec.a2a([11, 3, 4, 5, 2, 6, 7, 3], q=20), "greedy"),
            (JobSpec.x2y([9, 2, 3, 1], [5, 3, 4], q=17), "greedy"),
            (JobSpec.multiway([2, 3, 2, 3, 2, 2], q=9, r=3), "bin_combining"),
        ],
        ids=["a2a", "x2y", "multiway"],
    )
    def test_plan_ignores_worker_count(self, shape, pinned, mode, objective):
        method = {"planned": None, "fast-path": "auto", "pinned": pinned}[mode]
        planned = plan(replace(shape, method=method, objective=objective))
        assert planned.mode == mode
        one, many = (
            resolve_execution_config(
                Environment(num_workers=workers, memory_bytes=1 << 30),
                communication_cost=planned.schema().communication_cost,
                total_size=planned.spec.total_size,
                num_inputs=planned.spec.num_inputs,
            )
            for workers in (1, 64)
        )
        assert one == many == ExecutionConfig(backend="serial")


class TestExactGate:
    def test_a2a_exact_skipped_above_limit(self):
        sizes = [1] * (EXACT_A2A_INPUT_LIMIT + 1)
        planned = plan(JobSpec.a2a(sizes, q=4, method=None))
        exact = planned.candidate("exact")
        assert exact.status == "skipped"
        assert "exceeds the exact-search limit" in exact.reason

    def test_x2y_exact_skipped_where_it_would_exhaust_its_budget(self):
        # 24 cross pairs: exact spends its whole node budget (seconds)
        # on this instance and fails, so the gate must not let it run.
        planned = plan(JobSpec.x2y([1, 3], [1] * 12, q=6, method=None))
        exact = planned.candidate("exact")
        assert exact.status == "skipped"
        assert "exceeds the exact-search limit" in exact.reason

    def test_x2y_exact_attempted_at_pair_limit(self):
        x, y = [1] * 3, [1] * 5  # 15 cross pairs
        assert len(x) * len(y) == EXACT_X2Y_PAIR_LIMIT
        planned = plan(JobSpec.x2y(x, y, q=4, method=None))
        assert planned.candidate("exact").status != "skipped"

    def test_a2a_exact_attempted_at_limit(self):
        # At the limit the gate lets exact run; it may still blow its node
        # budget, which must be recorded as a failure, never as fatal.
        sizes = [1] * EXACT_A2A_INPUT_LIMIT
        planned = plan(JobSpec.a2a(sizes, q=4, method=None))
        assert planned.candidate("exact").status != "skipped"

    def test_a2a_exact_scored_on_small_instance(self):
        planned = plan(JobSpec.a2a([1] * 6, q=4, method=None))
        assert planned.candidate("exact").status == "scored"

    def test_x2y_exact_skipped_above_pair_limit(self):
        x = [1] * 6
        y = [1] * 6  # 36 cross pairs > 15
        planned = plan(JobSpec.x2y(x, y, q=4, method=None))
        assert planned.candidate("exact").status == "skipped"
        assert EXACT_X2Y_PAIR_LIMIT > 0

    def test_registries_cover_all_kinds(self):
        from repro.planner import method_registry

        assert method_registry("a2a") is A2A_METHODS
        assert method_registry("x2y") is X2Y_METHODS
        assert method_registry("multiway") is MULTIWAY_METHODS


class TestBinPairingGate:
    def test_bin_pairing_skipped_without_big_inputs(self):
        # big_small builds the same reducers and wins the name tie-break.
        planned = plan(JobSpec.a2a([3, 5, 2, 6, 4], q=12, method=None))
        pairing = planned.candidate("bin_pairing")
        assert pairing.status == "skipped"
        assert pairing.reason == (
            "same reducers as big_small: no input above q//2"
        )
        assert planned.candidate("big_small").status == "scored"

    def test_bin_pairing_attempted_with_a_big_input(self):
        planned = plan(JobSpec.a2a([3, 5, 2, 7, 4], q=12, method=None))
        assert planned.candidate("bin_pairing").status == "failed"


@st.composite
def x2y_full_plan_specs(draw):
    """A feasible, fully planned X2Y spec: mixed sizes, a big input (above
    ``q // 2``, on either side, so ``half_grid`` fails its split) or one
    size per side (so ``equal_grid`` applies)."""
    q = draw(st.integers(4, 60))
    shape = draw(st.sampled_from(["mixed", "big", "uniform"]))
    if shape == "big":
        x_max = draw(st.integers(q // 2 + 1, q - 1))
    else:
        x_max = draw(st.integers(1, q - 1))
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 24))
    if shape == "uniform":
        xs = [x_max] * m
        ys = [draw(st.integers(1, q - x_max))] * n
    else:
        xs = draw(st.lists(st.integers(1, x_max), min_size=m, max_size=m))
        ys = draw(st.lists(st.integers(1, q - x_max), min_size=n, max_size=n))
        if shape == "big":
            xs[0] = x_max
    if draw(st.booleans()):
        xs, ys = ys, xs
    return JobSpec.x2y(
        xs, ys, q, method=None, objective=draw(st.sampled_from(OBJECTIVES))
    )


def built_candidates(spec):
    """Full planning's candidate rows with every unskipped method built
    and scored from its schema, and the schemas by method."""
    instance = spec.instance()
    rows, schemas = [], {}
    for name in sorted(X2Y_METHODS):
        skip = _skip_reason(name, instance)
        if skip is not None:
            rows.append(CandidateScore(method=name, status="skipped", reason=skip))
            continue
        try:
            schemas[name] = X2Y_METHODS[name](instance)
        except ReproError as error:
            rows.append(
                CandidateScore(method=name, status="failed", reason=str(error))
            )
            continue
        rows.append(score_schema(name, schemas[name], spec.objective))
    return tuple(rows), schemas


class TestCountedX2YCandidates:
    """Full X2Y planning counts the grid family's costs and builds only
    the winner; the rows and the choice must be what building and
    scoring every method gives."""

    @settings(deadline=None, max_examples=200)
    @given(x2y_full_plan_specs())
    def test_counted_rows_equal_built_rows(self, spec):
        rows, schemas = built_candidates(spec)
        planned = plan(spec)
        assert planned.candidates == rows
        chosen = planned.schema()
        assert chosen.algorithm == schemas[planned.chosen].algorithm
        assert chosen.reducers == schemas[planned.chosen].reducers

    @pytest.mark.parametrize(
        "x, y, q, counted",
        [
            ([3, 5, 2, 7], [4, 1, 6], 14, {"half_grid", "best_split_grid", "big_small"}),
            ([9, 2, 3, 1], [5, 3, 4], 17, {"best_split_grid"}),
            ([4] * 5, [3] * 7, 12, {"equal_grid", "half_grid", "best_split_grid", "big_small"}),
        ],
        ids=["mixed", "big", "uniform"],
    )
    def test_only_the_winner_is_built(self, monkeypatch, x, y, q, counted):
        built = []

        def counting(name, build):
            def wrapped(instance):
                built.append(name)
                return build(instance)

            return wrapped

        for name, build in list(X2Y_METHODS.items()):
            monkeypatch.setitem(X2Y_METHODS, name, counting(name, build))
        planned = plan(JobSpec.x2y(x, y, q, method=None))
        scored = {c.method for c in planned.candidates if c.status == "scored"}
        assert counted <= scored
        # The uncounted candidates, then the counted winner.
        assert sorted(built) == sorted((scored - counted) | {planned.chosen})


class TestExecutionResolution:
    @pytest.mark.parametrize("workers", [1, 2, 64])
    @pytest.mark.parametrize("communication", [1, 3, 10_000])
    def test_serial_for_every_schema_and_machine(self, workers, communication):
        # Serial unless the caller names a backend: neither the schema
        # nor the machine's workers pick a pool.
        config = resolve_execution_config(
            Environment(num_workers=workers, memory_bytes=1 << 30),
            communication_cost=communication,
            total_size=100,
            num_inputs=10,
        )
        assert config == ExecutionConfig(backend="serial")

    def test_memory_budget_only_when_shuffle_exceeds_share(self):
        small = resolve_execution_config(
            ENV, communication_cost=10, total_size=100, num_inputs=10
        )
        assert small.memory_budget is None
        tight_env = Environment(num_workers=2, memory_bytes=1 << 20)
        big = resolve_execution_config(
            tight_env,
            communication_cost=1 << 20,
            total_size=1 << 20,
            num_inputs=1 << 20,
        )
        assert big.memory_budget is not None
        assert big.memory_budget >= 1024

    def test_memory_budget_sized_from_routed_pairs(self):
        # 16 MiB: the shuffle may use a quarter, 4 MiB, which is 16384
        # pairs of one size unit at 256 bytes each.  Serial, so one
        # reduce partition.
        env = Environment(num_workers=2, memory_bytes=1 << 24)

        def budget(communication_cost, total_size, num_inputs):
            config = resolve_execution_config(
                env,
                communication_cost=communication_cost,
                total_size=total_size,
                num_inputs=num_inputs,
            )
            assert config.num_reduce_tasks is None
            return config.memory_budget

        # Routed volume min(2**20, 2**16) = 2**16 units, 16 MiB: the one
        # parent buffer gets the whole share, not a per-worker part.
        assert budget(1 << 20, 1 << 16, 1 << 16) == 16384
        # The same volume in inputs of mean size 4 (2**14 inputs): a pair
        # holds 4 units, 1 KiB, so the share holds a quarter as many.
        assert budget(1 << 20, 1 << 16, 1 << 14) == 4096
        # Mean size 5 / 2 rounds up to 3 units: 4 MiB // 768 bytes.
        assert budget(1 << 20, 5 << 12, 2 << 12) == 5461
        # Mean size 64: 256 pairs, floored at the minimum budget.
        assert budget(1 << 20, 1 << 16, 1 << 10) == MIN_MEMORY_BUDGET
        # Every input shipped to the one partition is 1000 units, 256 kB:
        # under the share, however large the per-reducer communication.
        assert budget(1 << 20, 1000, 10) is None

    def test_no_budget_when_memory_unknown(self):
        env = Environment(num_workers=2, memory_bytes=None)
        config = resolve_execution_config(
            env, communication_cost=1 << 40, total_size=100, num_inputs=10
        )
        assert config.memory_budget is None

    def test_environment_detect_probes_sane_values(self):
        env = Environment.detect()
        assert env.num_workers >= 1
        assert env.memory_bytes is None or env.memory_bytes > 0


class TestPlanSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            JobSpec.a2a([3, 5, 2, 7, 4], q=12, method=None),
            JobSpec.a2a([4] * 6, q=8),
            JobSpec.x2y(
                [4, 5], [3, 3], q=10, method=None, objective="min-communication"
            ),
            JobSpec.x2y([4], [3], q=10, method="greedy"),
            JobSpec.multiway([2, 2, 2, 2], q=9, r=3, method=None),
        ],
    )
    def test_json_round_trip_is_lossless(self, spec):
        planned = plan(spec)
        loaded = Plan.from_json(planned.to_json())
        assert loaded == planned
        # And the rebuilt schema is the same schema.
        assert loaded.schema().reducers == planned.schema().reducers

    def test_bad_json_and_bad_payloads(self):
        with pytest.raises(InvalidInstanceError):
            Plan.from_json("{not json")
        with pytest.raises(InvalidInstanceError):
            Plan.from_json('{"version": 99}')
        with pytest.raises(InvalidInstanceError):
            Plan.from_json('{"version": 1, "spec": {"kind": "a2a", "q": 5}}')

    def test_plan_saved_with_map_chunk_size_still_loads(self):
        # Plans saved before the engine dropped map tasks carry the
        # execution key "map_chunk_size"; loading ignores it.
        planned = plan(JobSpec.a2a([3, 5, 2, 7, 4], q=12, method=None))
        assert "chunk=" not in planned.describe()
        payload = planned.to_dict()
        payload["execution"] = {"backend": "serial", "map_chunk_size": 4}
        loaded = Plan.from_json(json.dumps(payload))
        assert loaded == planned
        assert loaded.to_json() == planned.to_json()

    def test_plan_saved_with_execution_and_environment_still_loads(self):
        # Plans saved while they embedded a resolved engine config and an
        # environment snapshot load equal to the plan the same spec gives
        # now.
        planned = plan(JobSpec.a2a([3, 5, 2, 7, 4], q=12, method=None))
        payload = planned.to_dict()
        assert "execution" not in payload
        assert "environment" not in payload
        assert "execution" not in planned.describe()
        payload["execution"] = {
            "backend": "serial",
            "num_workers": None,
            "num_reduce_tasks": None,
            "memory_budget": 1024,
            "spill_dir": None,
        }
        payload["environment"] = {"num_workers": 2, "memory_bytes": 1 << 20}
        loaded = Plan.from_json(json.dumps(payload))
        assert loaded == planned
        assert loaded.to_json() == planned.to_json()


class TestRunStage:
    def test_run_funnels_into_engine(self):
        spec = JobSpec.a2a([3, 5, 2, 7, 4], q=12, method=None)
        planned = plan(spec)

        def reduce_fn(reducer, values):
            yield reducer, sorted(i for i, _ in values)

        result = run(planned, [f"r{i}" for i in range(5)], reduce_fn)
        assert result.engine.backend == "serial"
        assert result.metrics.num_reducers == planned.chosen_score.num_reducers

    def test_run_resolves_the_config_at_run_time(self, monkeypatch):
        # Without a config, run probes the machine once and sizes the
        # config from the chosen schema and the spec.
        from repro.planner import runner

        planned = plan(JobSpec.a2a([3, 5, 2, 7, 4], q=12, method=None))
        tight = Environment(num_workers=1, memory_bytes=1 << 12)
        monkeypatch.setattr(
            Environment, "detect", classmethod(lambda cls: tight)
        )
        resolved = []

        def spy(env, **shape):
            config = resolve_execution_config(env, **shape)
            resolved.append((env, shape, config))
            return config

        monkeypatch.setattr(runner, "resolve_execution_config", spy)
        result = run(planned, [f"r{i}" for i in range(5)], collect_reduce)
        (env, shape, config), = resolved
        assert env is tight
        assert shape == dict(
            communication_cost=planned.chosen_score.communication_cost,
            total_size=21,
            num_inputs=5,
        )
        # 21 units of 256 bytes exceed a quarter of 4 KiB.
        assert config.memory_budget == MIN_MEMORY_BUDGET
        assert result.engine.backend == "serial"

    def test_run_respects_config_override(self):
        planned = plan(JobSpec.a2a([2, 2, 2, 2], q=8))
        result = run(
            planned,
            list("abcd"),
            collect_reduce,
            config=ExecutionConfig(backend="processes", num_workers=2),
        )
        assert result.engine.backend == "processes"

    def test_multiway_plans_run_on_engine(self):
        # A multiway plan routes like an A2A plan and matches the
        # reference simulator fed the same schema.
        planned = plan(JobSpec.multiway([2, 3, 2, 3, 2, 2], q=9, r=3))
        records = list("abcdef")
        result = run(planned, records, collect_reduce)
        _, oracle, report = validate_against_simulator(
            planned.schema(), records, collect_reduce
        )
        assert report.ok, report.summary()
        assert result.outputs == oracle.outputs
        assert result.metrics == oracle.metrics
        assert result.metrics.num_reducers == planned.chosen_score.num_reducers

    def test_plan_schema_convenience(self):
        schema = plan(JobSpec.a2a([2] * 6, q=8)).schema()
        assert schema.num_reducers == 3
