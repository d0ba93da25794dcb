"""Unit tests for the algorithm-selection facade."""

from __future__ import annotations

import pytest

from repro.core.instance import A2AInstance, X2YInstance
from repro.core.selector import A2A_METHODS, X2Y_METHODS, solve_a2a, solve_x2y
from repro.exceptions import InfeasibleInstanceError


class TestSolveA2A:
    def test_auto_picks_a_grouping_scheme_for_uniform(self, equal_a2a):
        schema = solve_a2a(equal_a2a)
        assert schema.algorithm in ("equal_grouping", "grouped_covering")
        assert schema.verify().valid

    def test_auto_uniform_never_worse_than_plain_grouping(self, equal_a2a):
        from repro.core.a2a import equal_sized_grouping

        schema = solve_a2a(equal_a2a)
        assert schema.num_reducers <= equal_sized_grouping(equal_a2a).num_reducers

    def test_auto_picks_big_small_with_bigs(self, big_a2a):
        schema = solve_a2a(big_a2a)
        assert schema.algorithm == "big_small"
        assert schema.verify().valid

    def test_auto_picks_bin_pairing_otherwise(self):
        instance = A2AInstance([3, 5, 2, 6, 4], 12)
        schema = solve_a2a(instance)
        assert schema.algorithm.startswith("bin_pairing")
        assert schema.verify().valid

    def test_named_method(self, small_a2a):
        schema = solve_a2a(small_a2a, method="greedy")
        assert schema.algorithm == "greedy_cover"

    def test_unknown_method(self, small_a2a):
        with pytest.raises(ValueError, match="unknown A2A method"):
            solve_a2a(small_a2a, method="magic")

    def test_infeasible_rejected_before_dispatch(self):
        with pytest.raises(InfeasibleInstanceError):
            solve_a2a(A2AInstance([8, 8], 12), method="greedy")

    def test_all_registered_methods_solve_a_small_instance(self):
        # At q=6 two inputs exceed q // 3; q=9 admits triple_bins too,
        # and q=12 quad_bins as well.
        for q in (6, 9, 12):
            instance = A2AInstance([2, 3, 2, 3], q)
            for name in A2A_METHODS:
                if name in ("equal_grouping", "grouped_covering"):
                    continue  # require uniform sizes
                if name == "triple_bins" and q < 9:
                    continue  # requires every input <= q // 3
                if name == "quad_bins" and q < 12:
                    continue  # requires every input <= q // 4
                schema = solve_a2a(instance, method=name)
                assert schema.verify().valid, name


class TestSolveX2Y:
    def test_auto_picks_equal_grid_for_uniform(self):
        instance = X2YInstance.equal_sized(6, 2, 6, 3, 10)
        schema = solve_x2y(instance)
        assert schema.algorithm.startswith("equal_grid")
        assert schema.verify().valid

    def test_auto_with_bigs_takes_better_of_two_schemes(self):
        # A feasible X2Y instance can only have bigs on one side (two
        # inputs above q/2 that must meet would overflow q); auto builds
        # both general schemes and keeps the cheaper.
        instance = X2YInstance([9, 2], [8, 3], 17)
        schema = solve_x2y(instance)
        assert schema.verify().valid
        from repro.core.x2y import best_split_grid, big_small_x2y

        expected = min(
            big_small_x2y(instance).num_reducers,
            best_split_grid(instance).num_reducers,
        )
        assert schema.num_reducers == expected

    def test_auto_picks_best_split_otherwise(self, small_x2y):
        schema = solve_x2y(small_x2y)
        assert schema.algorithm.startswith("grid[")
        assert schema.verify().valid

    def test_named_method(self, small_x2y):
        schema = solve_x2y(small_x2y, method="greedy")
        assert schema.algorithm == "greedy_cover_x2y"

    def test_unknown_method(self, small_x2y):
        with pytest.raises(ValueError, match="unknown X2Y method"):
            solve_x2y(small_x2y, method="magic")

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleInstanceError):
            solve_x2y(X2YInstance([8], [8], 12))

    def test_all_registered_methods_solve_a_small_instance(self):
        instance = X2YInstance([2, 3], [2, 3], 8)
        for name in X2Y_METHODS:
            if name in ("equal_grid",):
                continue  # requires uniform sides
            schema = solve_x2y(instance, method=name)
            assert schema.verify().valid, name
