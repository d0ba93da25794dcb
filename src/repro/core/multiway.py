"""Multiway generalization: outputs depending on r > 2 inputs.

The paper's model fixes "each output depends on exactly two inputs"; its
natural generalization (discussed as an extension in the companion
technical report) requires every *r-subset* of inputs to meet at some
reducer — e.g. three-way similarity, triangle enumeration over adjacency
lists, or r-way joins.  The bin-pairing scheme generalizes directly: pack
inputs into bins of capacity ``q // r`` and give every r-combination of
bins a reducer (any r such bins co-fit).

This module is self-contained: instance, schema, verification, lower
bounds and the generalized scheme, mirroring the pairwise machinery.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb
from typing import Iterator

from repro.binpack.ffd import first_fit_decreasing
from repro.exceptions import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvalidSchemaError,
)
from repro.utils.validation import check_capacity, check_positive_int, check_sizes


@dataclass(frozen=True)
class MultiwayInstance:
    """m inputs, capacity q, and every r-subset of inputs must meet."""

    sizes: tuple[int, ...]
    q: int
    r: int

    def __init__(self, sizes, q, r):
        object.__setattr__(self, "sizes", check_sizes(sizes))
        object.__setattr__(self, "q", check_capacity(q, self.sizes))
        object.__setattr__(self, "r", check_positive_int(r, "r"))
        if self.r < 2:
            raise InvalidInstanceError(f"r must be >= 2, got {r}")

    @property
    def m(self) -> int:
        """Number of inputs."""
        return len(self.sizes)

    @property
    def total_size(self) -> int:
        """Sum of all input sizes."""
        return sum(self.sizes)

    @property
    def num_groups(self) -> int:
        """Number of required r-subsets: C(m, r)."""
        return comb(self.m, self.r)

    def groups(self) -> Iterator[tuple[int, ...]]:
        """Iterate all required r-subsets (sorted index tuples)."""
        return combinations(range(self.m), self.r)

    def max_inputs_per_reducer(self) -> int:
        """Largest number of inputs one reducer can hold (smallest-first)."""
        budget = self.q
        count = 0
        for size in sorted(self.sizes):
            if size > budget:
                break
            budget -= size
            count += 1
        return count

    def is_feasible(self) -> bool:
        """Any schema exists iff the r largest inputs co-fit."""
        if self.m < self.r:
            return True  # no r-subset exists; a single reducer suffices
        largest = sorted(self.sizes, reverse=True)[: self.r]
        return sum(largest) <= self.q

    def check_feasible(self) -> None:
        """Raise :class:`InfeasibleInstanceError` if no schema can exist."""
        if not self.is_feasible():
            raise InfeasibleInstanceError(
                f"the {self.r} largest inputs sum beyond q = {self.q}; "
                "this group can never meet at any reducer"
            )


@dataclass(frozen=True)
class MultiwaySchema:
    """An assignment of multiway inputs to reducers."""

    instance: MultiwayInstance
    reducers: tuple[tuple[int, ...], ...]
    algorithm: str = "unspecified"

    @classmethod
    def from_lists(cls, instance, reducers, algorithm="unspecified"):
        """Normalize reducers (dedupe + sort member indices)."""
        normalized = tuple(tuple(sorted(set(r))) for r in reducers)
        return cls(instance=instance, reducers=normalized, algorithm=algorithm)

    @property
    def num_reducers(self) -> int:
        """Number of reducers used."""
        return len(self.reducers)

    @functools.cached_property
    def loads(self) -> tuple[int, ...]:
        """Total assigned size per reducer (computed once per schema)."""
        sizes = self.instance.sizes
        return tuple(sum(sizes[i] for i in reducer) for reducer in self.reducers)

    @property
    def communication_cost(self) -> int:
        """Total size shipped map -> reduce."""
        return sum(self.loads)

    def verify(self) -> tuple[bool, str]:
        """Check capacity and r-subset coverage; returns (ok, message).

        Exhaustive over C(m, r) subsets — intended for the moderate sizes
        the multiway extension targets.
        """
        instance = self.instance
        for index, load in enumerate(self.loads):
            if load > instance.q:
                return False, f"reducer {index} load {load} > q {instance.q}"
        covered: set[tuple[int, ...]] = set()
        for reducer in self.reducers:
            if len(reducer) >= instance.r:
                covered.update(combinations(reducer, instance.r))
        if instance.m < instance.r:
            missing = 0 if self.reducers else 1
            if missing:
                return False, "no reducer emits the undersized input set"
            return True, "valid"
        for group in instance.groups():
            if group not in covered:
                return False, f"group {group} meets at no reducer"
        return True, "valid"

    def require_valid(self) -> "MultiwaySchema":
        """Raise :class:`InvalidSchemaError` unless the schema verifies."""
        ok, message = self.verify()
        if not ok:
            raise InvalidSchemaError(f"multiway schema: {message}")
        return self


def multiway_volume_bound(instance: MultiwayInstance) -> int:
    """``ceil(total / q)``: every input ships at least once."""
    return ceil(instance.total_size / instance.q)


def multiway_cover_bound(instance: MultiwayInstance) -> int:
    """Group-covering bound: ``C(m,r) / C(t,r)`` with t = max inputs/reducer."""
    if instance.m < instance.r:
        return 1
    t = instance.max_inputs_per_reducer()
    if t < instance.r:
        return instance.num_groups + 1  # infeasible sentinel
    return ceil(instance.num_groups / comb(t, instance.r))


def multiway_reducer_lower_bound(instance: MultiwayInstance) -> int:
    """Strongest implemented lower bound for the multiway problem."""
    return max(multiway_volume_bound(instance), multiway_cover_bound(instance))


def multiway_bin_combining(
    instance: MultiwayInstance,
    packer=first_fit_decreasing,
) -> MultiwaySchema:
    """The generalized bin scheme: ``q // r`` bins, one reducer per r-combination.

    Any r bins of capacity ``q // r`` co-fit in one reducer; every r-subset
    of inputs meets at the reducer of its (multiset of) bins — subsets
    spanning fewer than r distinct bins are covered because combinations of
    the *other* bins complete the reducer, so we take combinations of all
    bins, plus the degenerate single-reducer cases.

    Requires every size <= ``q // r``; raises
    :class:`InvalidInstanceError` otherwise (the multiway analogue of big
    inputs is out of scope, matching the TR's treatment).
    """
    instance.check_feasible()
    share = instance.q // instance.r
    oversized = [i for i, w in enumerate(instance.sizes) if w > share]
    if oversized:
        raise InvalidInstanceError(
            f"{len(oversized)} input(s) exceed q//r = {share}; the multiway "
            "bin scheme requires all sizes within one bin share"
        )
    if instance.m <= instance.r:
        return MultiwaySchema.from_lists(
            instance, [list(range(instance.m))], algorithm="bin_combining"
        )

    packing = packer(instance.sizes, share)
    bins = [list(b) for b in packing.bins]
    if len(bins) <= instance.r:
        reducers = [[i for bin_items in bins for i in bin_items]]
    else:
        reducers = [
            [i for index in combo for i in bins[index]]
            for combo in combinations(range(len(bins)), instance.r)
        ]
    return MultiwaySchema.from_lists(instance, reducers, algorithm="bin_combining")
