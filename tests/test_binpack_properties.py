"""Property-based tests (hypothesis) for the bin-packing substrate."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binpack import (
    HEURISTICS,
    Bin,
    best_lower_bound,
    first_fit,
    first_fit_decreasing,
    next_fit,
    pack_exact,
)
from repro.binpack.ffd import decreasing_runs, ffd_bin_count, ffd_bin_loads

sizes_and_capacity = st.integers(1, 30).flatmap(
    lambda cap: st.tuples(
        st.lists(st.integers(1, cap), min_size=1, max_size=40),
        st.just(cap),
    )
)

# Shapes that exercise the closed-prefix skip: few distinct sizes (duplicates),
# all-ones sides, and a capacity equal to the largest item.
first_fit_cases = st.one_of(
    sizes_and_capacity,
    st.integers(1, 8).flatmap(
        lambda cap: st.tuples(
            st.lists(st.sampled_from([1, cap, max(1, cap // 2)]), min_size=1, max_size=60),
            st.just(cap),
        )
    ),
    st.tuples(st.lists(st.just(1), min_size=1, max_size=80), st.integers(1, 12)),
    st.lists(st.integers(1, 30), min_size=1, max_size=40).map(
        lambda sizes: (sizes, max(sizes))
    ),
)

# Long runs of repeated sizes, which the packers place a run at a time: all
# sizes equal, a few distinct sizes, and sizes equal to the capacity.
repeated_size_cases = st.integers(1, 30).flatmap(
    lambda cap: st.tuples(
        st.one_of(
            st.integers(1, cap).flatmap(
                lambda size: st.lists(st.just(size), min_size=1, max_size=150)
            ),
            st.lists(st.integers(1, cap), min_size=2, max_size=3).flatmap(
                lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=150)
            ),
            st.lists(
                st.one_of(st.just(cap), st.integers(1, cap)), min_size=1, max_size=60
            ),
        ),
        st.just(cap),
    )
)

small_sizes_and_capacity = st.integers(2, 15).flatmap(
    lambda cap: st.tuples(
        st.lists(st.integers(1, cap), min_size=1, max_size=9),
        st.just(cap),
    )
)


@given(sizes_and_capacity)
def test_every_heuristic_produces_valid_partition(case):
    sizes, cap = case
    for packer in HEURISTICS.values():
        packer(sizes, cap).validate()


@given(sizes_and_capacity)
def test_heuristics_respect_lower_bound(case):
    sizes, cap = case
    bound = best_lower_bound(sizes, cap)
    for packer in HEURISTICS.values():
        assert packer(sizes, cap).num_bins >= bound


@given(sizes_and_capacity)
def test_ffd_within_guarantee_of_lower_bound(case):
    """FFD <= (11/9) OPT + 1 <= (11/9) * bound + 1, with OPT >= bound."""
    sizes, cap = case
    bound = best_lower_bound(sizes, cap)
    assert first_fit_decreasing(sizes, cap).num_bins <= (11 / 9) * bound + 1


@given(sizes_and_capacity)
def test_next_fit_within_twice_volume(case):
    """NF's classic guarantee: at most 2 * ceil(volume) bins."""
    sizes, cap = case
    volume_bound = -(-sum(sizes) // cap)
    assert next_fit(sizes, cap).num_bins <= 2 * volume_bound


@settings(deadline=None, max_examples=40)
@given(small_sizes_and_capacity)
def test_exact_is_minimal_among_heuristics(case):
    sizes, cap = case
    exact = pack_exact(sizes, cap)
    exact.validate()
    best_heuristic = min(p(sizes, cap).num_bins for p in HEURISTICS.values())
    assert exact.num_bins <= best_heuristic
    assert exact.num_bins >= best_lower_bound(sizes, cap)


@given(sizes_and_capacity)
def test_bin_loads_sum_to_total(case):
    sizes, cap = case
    result = first_fit_decreasing(sizes, cap)
    assert sum(result.bin_loads()) == sum(sizes)


def bin_first_fit(sizes, capacity, order):
    """Reference first-fit: one ``Bin`` per bin, every bin tried in turn."""
    bins: list[Bin] = []
    for index in order:
        size = sizes[index]
        for bin_ in bins:
            if bin_.fits(size):
                bin_.add(index, size)
                break
        else:
            fresh = Bin(capacity=capacity)
            fresh.add(index, size)
            bins.append(fresh)
    return tuple(tuple(b.items) for b in bins)


@given(st.one_of(first_fit_cases, repeated_size_cases))
def test_first_fit_matches_bin_reference(case):
    sizes, cap = case
    assert first_fit(sizes, cap).bins == bin_first_fit(sizes, cap, range(len(sizes)))


@given(st.one_of(first_fit_cases, repeated_size_cases))
def test_first_fit_decreasing_matches_bin_reference(case):
    sizes, cap = case
    order = sorted(range(len(sizes)), key=lambda i: sizes[i], reverse=True)
    assert first_fit_decreasing(sizes, cap).bins == bin_first_fit(sizes, cap, order)


@given(st.one_of(first_fit_cases, repeated_size_cases))
def test_ffd_bin_count_matches_first_fit_decreasing(case):
    sizes, cap = case
    runs = decreasing_runs(sizes)
    packing = first_fit_decreasing(sizes, cap)
    assert ffd_bin_count(runs, cap) == packing.num_bins
    assert ffd_bin_loads(runs, cap) == packing.bin_loads()
