"""Greedy pair-cover baseline for A2A.

A straightforward comparator for the paper's structured schemes: repeatedly
open a reducer, seed it with the uncovered pair of largest joint degree,
then keep adding the input with the best (newly covered pairs / size) ratio
until nothing fits or nothing helps.  No approximation guarantee, but a
natural "what a practitioner would try first" baseline for E2/E8.

Uncovered pairs are kept as one bitmask per input: bit ``j`` of
``open_with[i]`` is set while the pair ``{i, j}`` is uncovered, so the
pairs a candidate would newly cover are one AND and a popcount against the
reducer's member mask, and only inputs that still fit and share an
uncovered pair with a member are scanned.  Ties break deterministically:

* the seed is the first pair of maximal key in the iteration order of the
  set of uncovered pairs, built once as ``set(instance.pairs())``.  Pairs
  are only ever removed from that set, one ``discard`` at a time (which
  never rebuilds the table), never inserted, so the order of the
  remaining pairs never changes;
* growth scans candidates in ascending index order and keeps the first
  one of strictly best gain.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.instance import A2AInstance
from repro.core.schema import A2ASchema
from repro.utils.bits import FitMasks, set_bits


def greedy_cover(instance: A2AInstance, *, max_reducers: int | None = None) -> A2ASchema:
    """Cover all pairs greedily.

    *max_reducers* optionally caps the schema size (a safety valve for
    adversarial instances); by default the loop runs until every pair is
    covered, which always terminates because each iteration covers at least
    the seeding pair.

    Raises :class:`repro.exceptions.InfeasibleInstanceError` for infeasible
    instances.
    """
    instance.check_feasible()
    m = instance.m
    if m == 1:
        return A2ASchema.from_lists(instance, [[0]], algorithm="greedy_cover")

    sizes = instance.sizes
    q = instance.q
    full = (1 << m) - 1
    open_with = [full ^ (1 << i) for i in range(m)]
    fits = FitMasks(sizes)
    # A pair's key: joint degree (uncovered pairs touching either input),
    # then smaller joint size.  span exceeds every joint size, so
    # key[i] + key[j] orders pairs exactly so.
    span = 2 * q + 1
    uncovered: set[tuple[int, int]] = set(instance.pairs())
    reducers: list[list[int]] = []

    while uncovered:
        if max_reducers is not None and len(reducers) >= max_reducers:
            break
        # Seed with the uncovered pair of maximum key that co-fits;
        # feasibility guarantees at least one uncovered pair fits (all do).
        key = [row.bit_count() * span - size for row, size in zip(open_with, sizes)]
        a, b = max(uncovered, key=lambda p: key[p[0]] + key[p[1]])
        held = (1 << a) | (1 << b)
        load = sizes[a] + sizes[b]
        # Inputs that still fit and have an uncovered pair to some member:
        # only they can gain, and every one of them does.
        reach = (open_with[a] | open_with[b]) & fits.within(q - load) & ~held

        while reach:
            best_gain = 0.0
            best_input = -1
            for i in set_bits(reach):
                gain = (open_with[i] & held).bit_count() / sizes[i]
                if gain > best_gain:
                    best_gain = gain
                    best_input = i
            held |= 1 << best_input
            load += sizes[best_input]
            reach |= open_with[best_input]
            reach &= fits.within(q - load) & ~held

        reducer = set_bits(held)
        reducers.append(reducer)
        for i in reducer:
            open_with[i] &= ~held
        # One discard at a time: set.difference_update may rebuild the
        # table, which would reorder the remaining pairs and so the ties.
        for pair in combinations(reducer, 2):
            uncovered.discard(pair)

    return A2ASchema.from_lists(instance, reducers, algorithm="greedy_cover")
