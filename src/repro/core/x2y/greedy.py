"""Greedy cross-pair cover baseline for X2Y.

The unstructured comparator for the grid schemes: seed each new reducer
with an uncovered cross pair, then grow it with whichever input (from
either side) covers the most new cross pairs per size unit.

Uncovered cross pairs are kept as bitmasks, one per row and one per
column: bit ``j`` of ``row_open[i]`` and bit ``i`` of ``col_open[j]`` are
set while the pair ``(i, j)`` is uncovered.  The pairs a candidate would
newly cover are one AND and a popcount against the other side's member
mask, and only inputs that still fit and share an uncovered pair with a
member are scanned.  Ties break deterministically:

* the seed is the first uncovered pair in the iteration order of
  ``set(instance.pairs())``: the order a set of the uncovered pairs
  keeps when pairs are only discarded from it, one at a time (``discard``
  never rebuilds the table).  So one pass over that set, skipping covered
  pairs, finds each seed;
* growth scans X candidates, then Y candidates, each in ascending index
  order, and keeps the first one of strictly best gain.
"""

from __future__ import annotations

from repro.core.instance import X2YInstance
from repro.core.schema import X2YSchema
from repro.utils.bits import FitMasks, set_bits


def greedy_cover_x2y(
    instance: X2YInstance, *, max_reducers: int | None = None
) -> X2YSchema:
    """Cover all cross pairs greedily; see module docstring.

    Raises :class:`repro.exceptions.InfeasibleInstanceError` for infeasible
    instances.  Terminates because every iteration covers its seed pair.
    """
    instance.check_feasible()
    xs, ys = instance.x_sizes, instance.y_sizes
    q = instance.q
    row_open = [(1 << instance.n) - 1] * instance.m
    col_open = [(1 << instance.m) - 1] * instance.n
    x_fits, y_fits = FitMasks(xs), FitMasks(ys)
    reducers: list[tuple[list[int], list[int]]] = []

    # repro-lint: disable=determinism -- tuples of ints hash the same in every run, so the set's order is fixed; it is the seed tie-break (module docstring)
    for seed_i, seed_j in set(instance.pairs()):
        if not row_open[seed_i] >> seed_j & 1:
            continue
        if max_reducers is not None and len(reducers) >= max_reducers:
            break
        x_held = 1 << seed_i
        y_held = 1 << seed_j
        load = xs[seed_i] + ys[seed_j]
        # Candidates that still fit and have an uncovered pair to some
        # member of the other side: only they can gain, and all of them do.
        x_reach = col_open[seed_j] & x_fits.within(q - load) & ~x_held
        y_reach = row_open[seed_i] & y_fits.within(q - load) & ~y_held

        while x_reach or y_reach:
            best_gain = 0.0
            best_i = best_j = -1
            for i in set_bits(x_reach):
                gain = (row_open[i] & y_held).bit_count() / xs[i]
                if gain > best_gain:
                    best_gain = gain
                    best_i = i
            for j in set_bits(y_reach):
                gain = (col_open[j] & x_held).bit_count() / ys[j]
                if gain > best_gain:
                    best_gain = gain
                    best_j = j
            if best_j >= 0:
                y_held |= 1 << best_j
                load += ys[best_j]
                x_reach |= col_open[best_j]
            else:
                x_held |= 1 << best_i
                load += xs[best_i]
                y_reach |= row_open[best_i]
            x_reach &= x_fits.within(q - load) & ~x_held
            y_reach &= y_fits.within(q - load) & ~y_held

        x_members, y_members = set_bits(x_held), set_bits(y_held)
        reducers.append((x_members, y_members))
        for i in x_members:
            row_open[i] &= ~y_held
        for j in y_members:
            col_open[j] &= ~x_held

    return X2YSchema.from_lists(instance, reducers, algorithm="greedy_cover_x2y")
