"""Unit tests for the bin-packing heuristics (FFD/BFD/NF/WF)."""

from __future__ import annotations

import re

import pytest

from repro.binpack import (
    HEURISTICS,
    best_fit,
    best_fit_decreasing,
    first_fit,
    first_fit_decreasing,
    next_fit,
    worst_fit,
)
from repro.binpack.ffd import decreasing_runs, ffd_bin_count
from repro.exceptions import InvalidInstanceError

ALL_PACKERS = list(HEURISTICS.values())


@pytest.mark.parametrize("packer", ALL_PACKERS, ids=list(HEURISTICS))
class TestAllPackersShared:
    """Invariants every packing heuristic must satisfy."""

    def test_packs_every_item_exactly_once(self, packer):
        result = packer([3, 1, 4, 1, 5, 9, 2, 6], 10)
        packed = sorted(i for b in result.bins for i in b)
        assert packed == list(range(8))

    def test_respects_capacity(self, packer):
        result = packer([7, 7, 7, 3, 3, 3], 10)
        assert all(load <= 10 for load in result.bin_loads())

    def test_single_item(self, packer):
        result = packer([5], 10)
        assert result.num_bins == 1
        assert result.bins == ((0,),)

    def test_items_exactly_filling_bins(self, packer):
        result = packer([10, 10, 10], 10)
        assert result.num_bins == 3

    def test_validate_passes(self, packer):
        result = packer([2, 9, 4, 4, 1, 8], 12)
        result.validate()

    def test_rejects_oversized_item(self, packer):
        with pytest.raises(
            InvalidInstanceError, match="^item 1 of size 11 exceeds bin capacity 10$"
        ):
            packer([5, 11], 10)

    def test_rejects_zero_size(self, packer):
        with pytest.raises(InvalidInstanceError, match=r"^sizes\[1\] must be positive, got 0$"):
            packer([5, 0], 10)

    @pytest.mark.parametrize(
        ("sizes", "capacity", "message"),
        [
            ([5, True], 10, "sizes[1] must be a positive integer, got bool True"),
            ([5, 2.5], 10, "sizes[1] must be integral, got 2.5"),
            ([5, -3], 10, "sizes[1] must be positive, got -3"),
            ([5], False, "capacity must be a positive integer, got bool False"),
            ([5], 0, "capacity must be positive, got 0"),
            ([5], 10.5, "capacity must be integral, got 10.5"),
        ],
        ids=["bool", "fractional", "negative", "bool-capacity", "zero-capacity", "fractional-capacity"],
    )
    def test_rejects_invalid_input(self, packer, sizes, capacity, message):
        with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
            packer(sizes, capacity)

    def test_coerces_integral_floats(self, packer):
        result = packer([5, 3.0], 10.0)
        assert result.sizes == (5, 3) and result.capacity == 10
        assert all(type(s) is int for s in result.sizes)

    def test_indices_refer_to_original_order(self, packer):
        sizes = [2, 9, 1]
        result = packer(sizes, 10)
        for bin_items in result.bins:
            for i in bin_items:
                assert sizes[i] == result.sizes[i]


class TestFirstFit:
    def test_uses_first_open_bin(self):
        # 6 then 3 fit together under FF; 5 opens bin 2.
        result = first_fit([6, 3, 5], 10)
        assert result.bins[0] == (0, 1)
        assert result.bins[1] == (2,)

    def test_algorithm_name(self):
        assert first_fit([1], 2).algorithm == "first_fit"


class TestFFD:
    def test_classic_ffd_example(self):
        # Sorted desc: 8 7 6 5 2 2 -> [8,2], [7,2], [6], [5]; the four
        # items above 5 are pairwise incompatible with each other except
        # via the 2s, so 4 bins is also optimal here.
        result = first_fit_decreasing([5, 7, 2, 8, 6, 2], 10)
        assert sum(result.bin_loads()) == 30
        assert result.num_bins == 4
        assert sorted(result.bin_loads(), reverse=True) == [10, 9, 6, 5]

    def test_ffd_beats_or_ties_ff_on_decreasing_adversary(self):
        sizes = [4, 4, 4, 6, 6, 6]
        assert (
            first_fit_decreasing(sizes, 10).num_bins
            <= first_fit(sizes, 10).num_bins
        )

    def test_perfect_packing_found(self):
        # Pairs summing to exactly 10.
        result = first_fit_decreasing([7, 3, 6, 4, 5, 5], 10)
        assert result.num_bins == 3
        assert all(load == 10 for load in result.bin_loads())


class TestFFDBinCount:
    def test_runs_are_the_size_multiset_in_decreasing_order(self):
        assert decreasing_runs([2, 5, 2, 7, 5, 2]) == [(7, 1), (5, 2), (2, 3)]
        assert decreasing_runs([]) == []

    def test_counts_ffd_bins(self):
        # 7 | 5 5 | 2 2 2 at capacity 10 -> [7,2], [5,5], [2,2].
        assert ffd_bin_count([(7, 1), (5, 2), (2, 3)], 10) == 3
        assert ffd_bin_count([(1, 692)], 30) == 24
        assert ffd_bin_count([], 10) == 0

    @pytest.mark.parametrize("capacity", [6, 0, -1, 2.5, True])
    def test_rejects_capacity_below_largest_or_not_positive(self, capacity):
        with pytest.raises(InvalidInstanceError):
            ffd_bin_count([(7, 1), (5, 2)], capacity)


class TestBestFit:
    def test_prefers_tightest_bin(self):
        # After 7 and 5, a 3 should join the 7 (residual 3) not the 5.
        result = best_fit([7, 5, 3], 10)
        assert (0, 2) in result.bins

    def test_bfd_name(self):
        assert best_fit_decreasing([1], 2).algorithm == "best_fit_decreasing"


class TestNextFit:
    def test_never_reopens_closed_bin(self):
        # 6, then 5 closes bin 1, then 4: NF puts 4 with 5 (fits), not bin 1.
        result = next_fit([6, 5, 4], 10)
        assert result.bins == ((0,), (1, 2))

    def test_at_most_twice_optimal_on_halves(self):
        sizes = [5] * 10  # optimal = 5 bins of two
        assert next_fit(sizes, 10).num_bins == 5


class TestWorstFit:
    def test_prefers_emptiest_bin(self):
        # After 7 and 5, a 3 should join the 5 (residual 5) not the 7.
        result = worst_fit([7, 5, 3], 10)
        assert (1, 2) in result.bins

    def test_balances_loads(self):
        result = worst_fit([4, 4, 4, 4], 8)
        assert result.num_bins == 2
        assert result.bin_loads() == [8, 8]
