"""Unit tests for the A2A bin-pairing and big/small schemes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binpack import best_fit_decreasing, first_fit_decreasing, next_fit
from repro.core.a2a.big_small import _prune_dominated, big_small, split_big_small
from repro.core.a2a.ffd_pairing import ffd_pairing, pair_bins
from repro.core.bounds import a2a_reducer_lower_bound
from repro.core.instance import A2AInstance
from repro.core.schema import A2ASchema
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError


class TestPairBins:
    def test_two_bins_one_reducer(self):
        assert pair_bins([[0, 1], [2]]) == [[0, 1, 2]]

    def test_three_bins_three_reducers(self):
        assert len(pair_bins([[0], [1], [2]])) == 3

    def test_single_bin_yields_single_reducer(self):
        assert pair_bins([[0, 1, 2]]) == [[0, 1, 2]]


class TestFFDPairing:
    def test_valid_on_mixed_sizes(self):
        instance = A2AInstance([3, 5, 2, 6, 4], 12)  # all <= q//2
        schema = ffd_pairing(instance)
        assert schema.verify().valid

    def test_rejects_big_inputs(self):
        instance = A2AInstance([7, 2, 3], 12)  # 7 > 6 = q//2
        with pytest.raises(InvalidInstanceError, match="big/small"):
            ffd_pairing(instance)

    def test_single_input(self):
        schema = ffd_pairing(A2AInstance([3], 12))
        assert schema.num_reducers == 1

    def test_reducer_count_is_bin_pairs(self):
        # Unit sizes, q=4: bins of capacity 2 -> 3 bins -> C(3,2)=3 reducers.
        instance = A2AInstance([1] * 6, 4)
        schema = ffd_pairing(instance)
        assert schema.num_reducers == 3

    def test_custom_packer(self):
        instance = A2AInstance([3, 5, 2, 6, 4], 12)
        schema = ffd_pairing(instance, packer=best_fit_decreasing)
        assert schema.verify().valid
        assert "best_fit_decreasing" in schema.algorithm

    def test_loads_bounded_by_q(self):
        instance = A2AInstance([3, 5, 2, 6, 4], 12)
        schema = ffd_pairing(instance)
        assert schema.max_load <= instance.q

    def test_odd_capacity_uses_floor_half(self):
        # q=13 -> bins of 6; two inputs of 6 cannot share a bin.
        instance = A2AInstance([6, 6], 13)
        schema = ffd_pairing(instance)
        assert schema.verify().valid

    def test_within_constant_factor_of_bound(self):
        sizes = [1, 2, 3, 4, 5, 6, 7, 8] * 4
        instance = A2AInstance(sizes, 32)
        schema = ffd_pairing(instance)
        assert schema.verify().valid
        bound = a2a_reducer_lower_bound(instance)
        # The pairing scheme's reducer count is C(b,2) where b is within
        # 11/9 of optimal packing; allow a generous constant for small b.
        assert schema.num_reducers <= 6 * bound + 3


class TestSplitBigSmall:
    def test_split_threshold_is_half_q(self, big_a2a):
        big, small = split_big_small(big_a2a)
        assert big == [0]  # only 10 > 9 = 19//2
        assert 1 in small  # 9 <= 9 is small

    def test_one_big_in_mixed_fixture(self, small_a2a):
        big, small = split_big_small(small_a2a)
        assert big == [3]  # size 7 > 6 = 12//2
        assert len(small) == 4


class TestBigSmall:
    def test_valid_with_bigs(self, big_a2a):
        schema = big_small(big_a2a)
        assert schema.verify().valid

    def test_valid_without_bigs_matches_pairing_validity(self, small_a2a):
        schema = big_small(small_a2a)
        assert schema.verify().valid

    def test_raises_on_infeasible(self):
        with pytest.raises(InfeasibleInstanceError):
            big_small(A2AInstance([10, 10, 1], 19))

    def test_single_input(self):
        schema = big_small(A2AInstance([7], 10))
        assert schema.num_reducers == 1

    def test_two_bigs_only(self):
        instance = A2AInstance([7, 8], 15)
        schema = big_small(instance)
        assert schema.verify().valid
        assert schema.num_reducers == 1

    def test_one_big_many_smalls(self):
        instance = A2AInstance([9, 2, 2, 2, 2, 2], 12)
        schema = big_small(instance)
        assert schema.verify().valid
        # Big has residual 3 -> needs ceil(10/3)=4 bins just for big-small.
        assert schema.num_reducers >= 4

    def test_all_bigs(self):
        instance = A2AInstance([6, 6, 6, 6], 12)
        schema = big_small(instance)
        assert schema.verify().valid

    def test_loads_bounded(self, big_a2a):
        schema = big_small(big_a2a)
        assert schema.max_load <= big_a2a.q

    def test_custom_packer(self, big_a2a):
        schema = big_small(big_a2a, packer=next_fit)
        assert schema.verify().valid

    def test_dominated_reducers_pruned(self):
        # With one big and smalls that fit in one residual bin, the
        # small-small reducer may be subsumed; no reducer is a subset of
        # another in the output.
        instance = A2AInstance([9, 2, 2], 14)
        schema = big_small(instance)
        sets = [frozenset(r) for r in schema.reducers]
        for a in range(len(sets)):
            for b in range(len(sets)):
                if a != b:
                    assert not sets[a] < sets[b]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 60).flatmap(
        lambda q: st.tuples(
            st.just(q), st.lists(st.integers(1, q // 2), min_size=2, max_size=40)
        )
    )
)
def test_without_bigs_the_schema_is_the_pruned_pairing(case):
    """Without big inputs big_small skips the prune: its reducers are
    what pruning the paired half-capacity bins would keep."""
    q, sizes = case
    instance = A2AInstance(sizes, q)
    pruned = _prune_dominated(pair_bins(first_fit_decreasing(sizes, q // 2).bins))
    assert big_small(instance).reducers == A2ASchema.from_lists(instance, pruned).reducers


@settings(deadline=None, max_examples=200)
@given(
    st.integers(2, 60).flatmap(
        lambda q: st.tuples(
            st.just(q), st.lists(st.integers(1, q // 2), min_size=1, max_size=40)
        )
    )
)
def test_without_bigs_big_small_and_bin_pairing_hold_the_same_reducers(case):
    """With no input above q // 2 the two methods build the same reducer
    sets in another order, which is why full planning skips bin_pairing."""
    q, sizes = case
    instance = A2AInstance(sizes, q)
    pairing = ffd_pairing(instance)
    general = big_small(instance)
    assert sorted(general.reducers) == sorted(pairing.reducers)
    assert sorted(general.loads) == sorted(pairing.loads)
