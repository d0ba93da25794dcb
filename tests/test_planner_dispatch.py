"""Selector/planner dispatch boundaries (satellite of the planner PR).

Pins the big/small cutoff at exactly ``q // 2`` vs ``q // 2 + 1``,
single-input and all-equal-sizes instances, and — the compatibility
contract — that the planner's fast path makes the same choice as the
historical ``method="auto"`` heuristic on a sweep of instance shapes
(the heuristic is reimplemented in this file as the oracle, building
every schema the fast path only counts).
"""

from __future__ import annotations

import pytest

from repro.core.a2a import (
    big_small,
    equal_sized_grouping,
    ffd_pairing,
    grouped_covering,
    quad_bins,
    triple_bins,
)
from repro.core.instance import A2AInstance, X2YInstance
from repro.core.selector import solve_a2a, solve_x2y
from repro.core.x2y import best_split_grid, big_small_x2y, equal_sized_grid
from repro.planner import Environment, JobSpec, fast_path_a2a, fast_path_x2y, plan

ENV = Environment(num_workers=2, memory_bytes=1 << 30)


def legacy_auto_a2a(instance: A2AInstance):
    """The pre-planner ``solve_a2a(..., "auto")`` body, kept as the oracle,
    with the triple- and quadruple-bin rules added by building every
    candidate schema."""
    if len(set(instance.sizes)) == 1:
        candidates = [equal_sized_grouping(instance), grouped_covering(instance)]
        return min(candidates, key=lambda s: s.num_reducers)
    half = instance.q // 2
    if any(w > half for w in instance.sizes):
        return big_small(instance)
    chosen = ffd_pairing(instance)
    for scheme, parts in ((triple_bins, 3), (quad_bins, 4)):
        if max(instance.sizes) > instance.q // parts:
            break
        candidate = scheme(instance)
        if (
            candidate.num_reducers <= chosen.num_reducers
            and candidate.communication_cost <= chosen.communication_cost
        ):
            chosen = candidate
    return chosen


def legacy_auto_x2y(instance: X2YInstance):
    """The pre-planner ``solve_x2y(..., "auto")`` body, kept as the oracle."""
    if len(set(instance.x_sizes)) == 1 and len(set(instance.y_sizes)) == 1:
        return equal_sized_grid(instance)
    half = instance.q // 2
    has_big = any(w > half for w in instance.x_sizes) or any(
        w > half for w in instance.y_sizes
    )
    if has_big:
        candidates = [big_small_x2y(instance), best_split_grid(instance)]
        return min(candidates, key=lambda s: s.num_reducers)
    return best_split_grid(instance)


class TestBigSmallCutoff:
    def test_a2a_size_exactly_half_q_stays_on_bin_pairing(self):
        # q = 20 -> half = 10; a size of exactly 10 is NOT big.
        instance = A2AInstance([10, 3, 4, 5], q=20)
        chosen, _, rule, _ = fast_path_a2a(instance)
        assert chosen == "bin_pairing"
        assert "no big inputs" in rule

    def test_a2a_size_half_q_plus_one_routes_to_big_small(self):
        instance = A2AInstance([11, 3, 4, 5], q=20)
        chosen, _, rule, _ = fast_path_a2a(instance)
        assert chosen == "big_small"
        assert "big inputs present" in rule

    def test_x2y_size_exactly_half_q_stays_on_grid(self):
        instance = X2YInstance([7, 2], [3, 4], q=14)
        chosen, _, _, _ = fast_path_x2y(instance)
        assert chosen == "best_split_grid"

    def test_x2y_size_half_q_plus_one_considers_big_small(self):
        instance = X2YInstance([8, 2], [3, 4], q=14)
        chosen, considered, _, _ = fast_path_x2y(instance)
        assert set(considered) == {"big_small", "best_split_grid"}
        expected = min(
            considered, key=lambda name: considered[name].num_reducers
        )
        assert chosen == expected

    def test_odd_q_boundary(self):
        # q = 13 -> half = 6: size 6 small, size 7 big.
        assert fast_path_a2a(A2AInstance([6, 3, 4], q=13))[0] == "bin_pairing"
        assert fast_path_a2a(A2AInstance([7, 3, 4], q=13))[0] == "big_small"


class TestDegenerateShapes:
    def test_single_input_a2a(self):
        planned = plan(JobSpec.a2a([5], q=8), ENV)
        schema = planned.schema()
        assert schema.num_reducers == 1
        assert schema.verify().valid
        # Full planning handles it too.
        planned_full = plan(JobSpec.a2a([5], q=8, method=None), ENV)
        assert planned_full.schema().verify().valid

    def test_single_input_per_side_x2y(self):
        planned = plan(JobSpec.x2y([4], [3], q=8), ENV)
        assert planned.schema().verify().valid

    def test_all_equal_sizes_takes_uniform_rule(self):
        chosen, considered, rule, _ = fast_path_a2a(A2AInstance([3] * 9, q=9))
        assert set(considered) == {"equal_grouping", "grouped_covering"}
        assert "uniform" in rule
        best = min(considered.values(), key=lambda s: s.num_reducers)
        assert considered[chosen].num_reducers == best.num_reducers

    def test_all_equal_sizes_x2y(self):
        chosen, _, _, _ = fast_path_x2y(X2YInstance([2] * 4, [2] * 5, q=8))
        assert chosen == "equal_grid"


class TestFastPathMatchesLegacyAuto:
    A2A_SHAPES = [
        ([3, 5, 2, 7, 4], 12),
        ([4] * 6, 8),
        ([2] * 10, 6),
        ([10, 3, 4, 5], 20),
        ([11, 3, 4, 5], 20),
        ([1, 1, 2, 3, 5, 8], 16),
        ([9], 10),
        ([5, 5, 5, 5], 10),
        ([6, 6, 1, 1, 1], 12),
        ([3, 3, 3], 18),
        ([1, 2, 3, 4, 2, 1, 3, 4, 2, 2, 3, 1], 12),
        ([5, 7, 9, 11, 13, 2, 4, 6, 8, 10] * 3, 40),
        ([1, 2, 3, 4, 5, 6] * 10, 30),
    ]

    X2Y_SHAPES = [
        ([4, 5], [3, 3], 10),
        ([9, 2, 3], [5, 3], 17),
        ([5, 3], [9, 2, 3], 17),
        ([2] * 4, [2] * 5, 8),
        ([7, 2], [3, 4], 14),
        ([8, 2], [3, 4], 14),
        ([1], [1], 2),
        ([6, 1], [6, 1], 12),
    ]

    @pytest.mark.parametrize("sizes,q", A2A_SHAPES)
    def test_a2a_sweep(self, sizes, q):
        instance = A2AInstance(sizes, q)
        oracle = legacy_auto_a2a(instance)
        chosen, considered, _, _ = fast_path_a2a(instance)
        assert considered[chosen].reducers == oracle.reducers
        assert considered[chosen].algorithm == oracle.algorithm
        # And the public facade still returns the identical schema.
        assert solve_a2a(instance).reducers == oracle.reducers
        # The app-facing plan pipeline agrees with the facade.
        planned = plan(JobSpec.a2a(sizes, q), ENV)
        assert planned.schema().reducers == oracle.reducers

    @pytest.mark.parametrize("x_sizes,y_sizes,q", X2Y_SHAPES)
    def test_x2y_sweep(self, x_sizes, y_sizes, q):
        instance = X2YInstance(x_sizes, y_sizes, q)
        oracle = legacy_auto_x2y(instance)
        chosen, considered, _, _ = fast_path_x2y(instance)
        assert considered[chosen].reducers == oracle.reducers
        assert considered[chosen].algorithm == oracle.algorithm
        assert solve_x2y(instance).reducers == oracle.reducers
        planned = plan(JobSpec.x2y(x_sizes, y_sizes, q), ENV)
        assert planned.schema().reducers == oracle.reducers
