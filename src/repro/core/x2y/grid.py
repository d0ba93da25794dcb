"""Grid schemes for X2Y: bin-pack each side, pair bins across sides.

Split the reducer capacity into an X share ``t`` and a Y share ``q - t``,
pack the X inputs into bins of capacity ``t`` and the Y inputs into bins of
capacity ``q - t``, and create one reducer per (X-bin, Y-bin) pair.  Every
cross pair meets at the reducer of its two bins, and each reducer's load is
at most ``t + (q - t) = q``.  With ``b_x`` and ``b_y`` bins the scheme uses
``b_x * b_y`` reducers; :func:`best_split_grid` searches the split ``t``
that minimizes the product, which makes the scheme fully general (any
feasible instance admits a split with ``t >= max(x)`` and
``q - t >= max(y)``).  The search compares bin counts only, and builds
one schema, for the winning split.  With FFD a probe is two bin counts
from the size multiset: each side's equal sizes are grouped into runs
once, and a probe places whole runs, so it costs O(distinct sizes * bins)
instead of a packing of every input.

A grid's costs follow from its bin loads alone: with X bin loads ``l_x``
and Y bin loads ``l_y`` it has ``len(l_x) * len(l_y)`` reducers, ships
every X input once per Y bin and every Y input once per X bin, and its
heaviest reducer pairs the heaviest bins.  :func:`grid_costs`,
:func:`half_split_grid_costs` and :func:`best_split_grid_costs` count
them from FFD bin loads without building a schema, after the same
checks and split search as the builders.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial
from itertools import product

from repro.binpack.ffd import (
    decreasing_runs,
    ffd_bin_count,
    ffd_bin_loads,
    first_fit_decreasing,
)
from repro.binpack.packing import PackingResult
from repro.core.instance import X2YInstance
from repro.core.schema import X2YSchema
from repro.exceptions import InvalidInstanceError
from repro.utils.validation import check_positive_int

Packer = Callable[[Sequence[int], int], PackingResult]

#: What a cost function counts for a schema it does not build:
#: ``(reducers, communication cost, max reducer load)``.
Costs = tuple[int, int, int]


def _check_split(instance: X2YInstance, x_capacity: int) -> int:
    """The Y share ``q - x_capacity``, or :class:`InvalidInstanceError`
    when the split leaves an input of either side without room."""
    y_capacity = instance.q - x_capacity
    if x_capacity < max(instance.x_sizes):
        raise InvalidInstanceError(
            f"x_capacity {x_capacity} < largest X input {max(instance.x_sizes)}"
        )
    if y_capacity < max(instance.y_sizes):
        raise InvalidInstanceError(
            f"y share q - t = {y_capacity} < largest Y input {max(instance.y_sizes)}"
        )
    return y_capacity


def grid_with_split(
    instance: X2YInstance,
    x_capacity: int,
    packer: Packer = first_fit_decreasing,
) -> X2YSchema:
    """Grid scheme with an explicit X-side capacity share.

    ``x_capacity`` must admit every X input and leave room (``q -
    x_capacity``) for every Y input; otherwise the split is invalid for this
    instance and :class:`InvalidInstanceError` is raised.
    """
    y_capacity = _check_split(instance, x_capacity)
    x_packing = packer(instance.x_sizes, x_capacity)
    y_packing = packer(instance.y_sizes, y_capacity)
    return X2YSchema.from_bins(
        instance,
        x_packing.bins,
        y_packing.bins,
        product(range(x_packing.num_bins), range(y_packing.num_bins)),
        algorithm=f"grid[t={x_capacity},{x_packing.algorithm}]",
    )


def grid_costs(instance: X2YInstance, x_capacity: int) -> Costs:
    """The :data:`Costs` of ``grid_with_split(instance, x_capacity)`` with
    the FFD packer, from each side's bin loads; raises as the builder
    does on an invalid split."""
    y_capacity = _check_split(instance, x_capacity)
    x_loads = ffd_bin_loads(decreasing_runs(instance.x_sizes), x_capacity)
    y_loads = ffd_bin_loads(decreasing_runs(instance.y_sizes), y_capacity)
    return (
        len(x_loads) * len(y_loads),
        len(y_loads) * sum(x_loads) + len(x_loads) * sum(y_loads),
        max(x_loads) + max(y_loads),
    )


def half_split_grid(
    instance: X2YInstance, packer: Packer = first_fit_decreasing
) -> X2YSchema:
    """The symmetric ``q/2 | q/2`` grid — the paper's default scheme.

    Requires every input on both sides to fit in half a reducer; use
    :func:`best_split_grid` or the big/small scheme otherwise.
    """
    return grid_with_split(instance, instance.q // 2, packer=packer)


def half_split_grid_costs(instance: X2YInstance) -> Costs:
    """The :data:`Costs` of :func:`half_split_grid` (FFD), unbuilt."""
    return grid_costs(instance, instance.q // 2)


def _candidate_splits(instance: X2YInstance, max_candidates: int) -> list[int]:
    """Split values to probe: the feasible range, subsampled if wide."""
    low = max(instance.x_sizes)
    high = instance.q - max(instance.y_sizes)
    if low > high:
        return []
    candidates = {low, high, instance.q // 2}
    span = high - low
    if span <= max_candidates:
        candidates.update(range(low, high + 1))
    else:
        step = span / max_candidates
        candidates.update(int(low + round(step * i)) for i in range(max_candidates + 1))
    return sorted(t for t in candidates if low <= t <= high)


def _bin_counter(sizes: tuple[int, ...], packer: Packer) -> Callable[[int], int]:
    """The number of bins *packer* packs *sizes* into, by capacity."""
    if packer is first_fit_decreasing:
        return partial(ffd_bin_count, decreasing_runs(sizes))
    return lambda capacity: packer(sizes, capacity).num_bins


def best_split(
    instance: X2YInstance,
    packer: Packer = first_fit_decreasing,
    *,
    max_candidates: int = 64,
) -> int:
    """The X share ``t`` :func:`best_split_grid` builds its grid for.

    Probes up to *max_candidates* split values across the feasible range
    (always including the endpoints and the symmetric split) and keeps the
    one whose ``b_x * b_y`` product is smallest, the first one on ties.
    With the default FFD packer a probe is two bin counts from the size
    multiset (:func:`~repro.binpack.ffd.ffd_bin_count` over runs of equal
    sizes built once per side); any other packer packs both sides.
    *max_candidates* must be a positive integer.
    """
    max_candidates = check_positive_int(max_candidates, "max_candidates")
    instance.check_feasible()
    x_bins = _bin_counter(instance.x_sizes, packer)
    y_bins = _bin_counter(instance.y_sizes, packer)
    best_t: int | None = None
    best_reducers = 0
    for t in _candidate_splits(instance, max_candidates):
        reducers = x_bins(t) * y_bins(instance.q - t)
        if best_t is None or reducers < best_reducers:
            best_t, best_reducers = t, reducers
    if best_t is None:
        # check_feasible passed, so the feasible split range is non-empty;
        # this is unreachable but keeps the type checker honest.
        raise InvalidInstanceError("no feasible capacity split found")
    return best_t


def best_split_grid(
    instance: X2YInstance,
    packer: Packer = first_fit_decreasing,
    *,
    max_candidates: int = 64,
) -> X2YSchema:
    """Grid scheme with the capacity split chosen to minimize reducer count.

    The split is :func:`best_split`'s.  A probe builds no schema: the
    grid of split ``t`` has exactly ``b_x * b_y`` reducers, so only the
    winner is built, with :func:`grid_with_split`.  Fully general:
    succeeds on every feasible X2Y instance.
    """
    t = best_split(instance, packer, max_candidates=max_candidates)
    return grid_with_split(instance, t, packer=packer)


def best_split_grid_costs(instance: X2YInstance) -> Costs:
    """The :data:`Costs` of :func:`best_split_grid` (FFD), unbuilt."""
    return grid_costs(instance, best_split(instance))
