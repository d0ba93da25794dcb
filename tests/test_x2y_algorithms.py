"""Unit tests for the X2Y schemes: grids, equal-sized, big/small, greedy."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.binpack import best_fit_decreasing, ffd, first_fit_decreasing, next_fit
from repro.core.bounds import x2y_reducer_lower_bound
from repro.core.instance import X2YInstance
from repro.core.x2y.big import big_small_x2y, split_big_small_x2y
from repro.core.x2y.equal import best_group_shape, equal_sized_grid
from repro.core.x2y.greedy import greedy_cover_x2y
from repro.core.schema import X2YSchema
from repro.core.selector import X2Y_COSTS, X2Y_METHODS
from repro.core.x2y.grid import (
    _candidate_splits,
    best_split_grid,
    grid_with_split,
    half_split_grid,
)
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError, ReproError


class TestGridWithSplit:
    def test_valid_schema(self, small_x2y):
        schema = grid_with_split(small_x2y, 7)
        assert schema.verify().valid

    def test_rejects_split_below_max_x(self, small_x2y):
        with pytest.raises(InvalidInstanceError, match="largest X"):
            grid_with_split(small_x2y, 5)  # max x = 6

    def test_rejects_split_starving_y(self, small_x2y):
        with pytest.raises(InvalidInstanceError, match="largest Y"):
            grid_with_split(small_x2y, 10)  # leaves 4 < 7 for Y

    def test_reducer_count_is_product(self):
        instance = X2YInstance([1] * 4, [1] * 6, 4)
        schema = grid_with_split(instance, 2)
        # X bins of cap 2 -> 2 bins; Y bins of cap 2 -> 3 bins -> 6 reducers.
        assert schema.num_reducers == 6

    def test_custom_packer(self, small_x2y):
        schema = grid_with_split(small_x2y, 7, packer=best_fit_decreasing)
        assert schema.verify().valid


class TestHalfSplitGrid:
    def test_valid_when_everything_small(self):
        instance = X2YInstance([3, 4], [5, 2], 12)
        schema = half_split_grid(instance)
        assert schema.verify().valid

    def test_fails_on_big_inputs(self, big_x2y):
        with pytest.raises(InvalidInstanceError):
            half_split_grid(big_x2y)


class TestBestSplitGrid:
    def test_valid_on_mixed(self, small_x2y):
        schema = best_split_grid(small_x2y)
        assert schema.verify().valid

    def test_never_worse_than_half_split(self):
        instance = X2YInstance([3, 3, 3, 3], [1, 1, 1, 1, 1, 1], 8)
        best = best_split_grid(instance)
        half = half_split_grid(instance)
        assert best.num_reducers <= half.num_reducers

    def test_handles_one_sided_bigs(self):
        # Big X inputs force an asymmetric split; best_split still works.
        instance = X2YInstance([9, 9], [1, 1, 1], 12)
        schema = best_split_grid(instance)
        assert schema.verify().valid

    def test_raises_on_infeasible(self):
        with pytest.raises(InfeasibleInstanceError):
            best_split_grid(X2YInstance([8], [8], 12))

    def test_within_factor_of_lower_bound(self):
        instance = X2YInstance([2, 3, 4] * 5, [1, 2, 5] * 5, 20)
        schema = best_split_grid(instance)
        bound = x2y_reducer_lower_bound(instance)
        assert schema.num_reducers <= 6 * bound + 3


def build_every_split(instance, packer, max_candidates=64):
    """Reference split search: build the grid of every candidate split and
    keep the first with strictly fewer reducers."""
    instance.check_feasible()
    best = None
    for t in _candidate_splits(instance, max_candidates):
        schema = grid_with_split(instance, t, packer=packer)
        if best is None or schema.num_reducers < best.num_reducers:
            best = schema
    return best


def _side(cap):
    """One side's sizes: any sizes, duplicates of a few, all ones, or
    sizes topped by one item of exactly *cap*."""
    return st.one_of(
        st.lists(st.integers(1, cap), min_size=1, max_size=30),
        st.lists(st.sampled_from([1, cap, max(1, cap // 3)]), min_size=1, max_size=30),
        st.lists(st.just(1), min_size=1, max_size=60),
        st.lists(st.integers(1, cap), max_size=20).map(lambda sizes: sizes + [cap]),
    )


@st.composite
def feasible_x2y(draw):
    q = draw(st.integers(2, 40))
    max_x = draw(st.integers(1, q - 1))
    max_y = draw(st.integers(1, q - max_x))
    return X2YInstance(draw(_side(max_x)), draw(_side(max_y)), q)


@pytest.mark.parametrize(
    "packer",
    [first_fit_decreasing, best_fit_decreasing, next_fit],
    ids=["ffd", "bfd", "next_fit"],
)
@given(instance=feasible_x2y(), max_candidates=st.sampled_from([3, 64]))
def test_best_split_grid_matches_building_every_split(packer, instance, max_candidates):
    got = best_split_grid(instance, packer, max_candidates=max_candidates)
    want = build_every_split(instance, packer, max_candidates)
    assert got.reducers == want.reducers
    assert got.algorithm == want.algorithm


def test_best_split_grid_builds_one_schema(monkeypatch):
    # The shape of the skew-join benchmark's largest heavy key: 60 splits
    # are probed, and only the winner may become a schema.
    built = []
    from_bins = X2YSchema.from_bins.__func__

    def counting(cls, *args, **kwargs):
        built.append(kwargs.get("algorithm"))
        return from_bins(cls, *args, **kwargs)

    monkeypatch.setattr(X2YSchema, "from_bins", classmethod(counting))
    instance = X2YInstance([1] * 692, [1] * 645, 60)
    schema = best_split_grid(instance)
    assert built == [schema.algorithm]
    assert schema.verify().valid


def test_best_split_grid_packs_only_the_winning_split(monkeypatch):
    # Same key: the probes count bins from each side's size multiset, so
    # the only full FFD packings are the winner's, one per side.
    packings = []
    packing_result = ffd.PackingResult

    def counting(**kwargs):
        packings.append(kwargs["algorithm"])
        return packing_result(**kwargs)

    monkeypatch.setattr(ffd, "PackingResult", counting)
    schema = best_split_grid(X2YInstance([1] * 692, [1] * 645, 60))
    assert packings == ["first_fit_decreasing"] * 2
    assert schema.algorithm.endswith("first_fit_decreasing]")


@given(instance=feasible_x2y())
def test_grid_family_bins_build_the_normal_form(instance):
    """``from_bins`` sorts each bin once; the reducers are exactly what
    ``from_lists`` normalises them to, with no pair held twice."""
    for method in ("equal_grid", "half_grid", "best_split_grid", "big_small"):
        try:
            schema = X2Y_METHODS[method](instance)
        except ReproError:
            continue
        assert schema.reducers == X2YSchema.from_lists(instance, schema.reducers).reducers
        assert schema.verify().valid


@given(instance=feasible_x2y())
def test_counted_costs_equal_the_built_schema(instance):
    """Each cost function counts the builder's reducers, communication and
    max load, or raises the builder's error with the same message."""
    for method, count in X2Y_COSTS.items():
        try:
            schema = X2Y_METHODS[method](instance)
        except ReproError as error:
            with pytest.raises(type(error), match=re.escape(str(error))):
                count(instance)
            continue
        costs = count(instance)
        if costs is None:
            assert method == "big_small"
            assert max(instance.x_sizes + instance.y_sizes) > instance.q // 2
            continue
        assert costs == (
            schema.num_reducers,
            schema.communication_cost,
            schema.max_load,
        )


@pytest.mark.parametrize("max_candidates", [0, -1, 2.5, True])
def test_best_split_grid_rejects_bad_max_candidates(small_x2y, max_candidates):
    with pytest.raises(InvalidInstanceError, match="max_candidates"):
        best_split_grid(small_x2y, max_candidates=max_candidates)


class TestBestGroupShape:
    def test_balanced_units(self):
        assert best_group_shape(1, 1, 10, 100, 100) == (5, 5)

    def test_respects_populations(self):
        a, b = best_group_shape(1, 1, 10, 2, 100)
        assert a <= 2

    def test_asymmetric_sizes(self):
        a, b = best_group_shape(3, 1, 12, 100, 100)
        assert a * 3 + b * 1 <= 12
        assert a * b >= 8  # e.g. (2,6) or (3,3): best is (2,6)=12? check >= 8

    def test_infeasible(self):
        with pytest.raises(InfeasibleInstanceError):
            best_group_shape(6, 7, 12, 5, 5)


class TestEqualSizedGrid:
    def test_valid(self):
        instance = X2YInstance.equal_sized(10, 2, 12, 3, 12)
        schema = equal_sized_grid(instance)
        assert schema.verify().valid

    def test_rejects_mixed(self, small_x2y):
        with pytest.raises(InvalidInstanceError):
            equal_sized_grid(small_x2y)

    def test_count_near_bound(self):
        instance = X2YInstance.equal_sized(20, 1, 20, 1, 10)
        schema = equal_sized_grid(instance)
        bound = x2y_reducer_lower_bound(instance)
        assert schema.verify().valid
        assert schema.num_reducers <= 3 * bound + 2


class TestSplitBigSmallX2Y:
    def test_partition(self, big_x2y):
        big_x, small_x, big_y, small_y = split_big_small_x2y(big_x2y)
        assert big_x == [0]  # 9 > 8 = 17//2
        assert big_y == []   # 8 <= 8
        assert len(small_x) == 2
        assert len(small_y) == 3


class TestBigSmallX2Y:
    def test_valid_with_one_sided_bigs(self):
        instance = X2YInstance([9, 2], [8, 3], 17)
        schema = big_small_x2y(instance)
        assert schema.verify().valid

    def test_valid_no_bigs(self):
        instance = X2YInstance([3, 4], [5, 2], 12)
        schema = big_small_x2y(instance)
        assert schema.verify().valid

    def test_raises_on_infeasible(self):
        with pytest.raises(InfeasibleInstanceError):
            big_small_x2y(X2YInstance([9], [9], 17))

    def test_loads_bounded(self, big_x2y):
        schema = big_small_x2y(big_x2y)
        assert schema.max_load <= big_x2y.q

    def test_only_bigs(self):
        instance = X2YInstance([7, 7], [5, 5], 12)
        schema = big_small_x2y(instance)
        assert schema.verify().valid
        # Every reducer is a single cross pair.
        assert schema.num_reducers == 4


class TestGreedyX2Y:
    def test_valid(self, small_x2y):
        schema = greedy_cover_x2y(small_x2y)
        assert schema.verify().valid

    def test_valid_with_bigs(self, big_x2y):
        schema = greedy_cover_x2y(big_x2y)
        assert schema.verify().valid

    def test_single_pair(self):
        schema = greedy_cover_x2y(X2YInstance([2], [3], 6))
        assert schema.num_reducers == 1

    def test_cap(self):
        instance = X2YInstance([3] * 5, [3] * 5, 6)
        schema = greedy_cover_x2y(instance, max_reducers=3)
        assert schema.num_reducers == 3
        assert not schema.verify().valid

    def test_raises_on_infeasible(self):
        with pytest.raises(InfeasibleInstanceError):
            greedy_cover_x2y(X2YInstance([5], [8], 12))
