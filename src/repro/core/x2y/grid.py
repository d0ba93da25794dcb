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
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial

from repro.binpack.ffd import decreasing_runs, ffd_bin_count, first_fit_decreasing
from repro.binpack.packing import PackingResult
from repro.core.instance import X2YInstance
from repro.core.schema import X2YSchema
from repro.exceptions import InvalidInstanceError
from repro.utils.validation import check_positive_int

Packer = Callable[[Sequence[int], int], PackingResult]


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
    y_capacity = instance.q - x_capacity
    if x_capacity < max(instance.x_sizes):
        raise InvalidInstanceError(
            f"x_capacity {x_capacity} < largest X input {max(instance.x_sizes)}"
        )
    if y_capacity < max(instance.y_sizes):
        raise InvalidInstanceError(
            f"y share q - t = {y_capacity} < largest Y input {max(instance.y_sizes)}"
        )
    x_packing = packer(instance.x_sizes, x_capacity)
    y_packing = packer(instance.y_sizes, y_capacity)
    reducers = [
        (tuple(x_bin), tuple(y_bin))
        for x_bin in x_packing.bins
        for y_bin in y_packing.bins
    ]
    return X2YSchema.from_lists(
        instance,
        reducers,
        algorithm=f"grid[t={x_capacity},{x_packing.algorithm}]",
    )


def half_split_grid(
    instance: X2YInstance, packer: Packer = first_fit_decreasing
) -> X2YSchema:
    """The symmetric ``q/2 | q/2`` grid — the paper's default scheme.

    Requires every input on both sides to fit in half a reducer; use
    :func:`best_split_grid` or the big/small scheme otherwise.
    """
    return grid_with_split(instance, instance.q // 2, packer=packer)


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


def best_split_grid(
    instance: X2YInstance,
    packer: Packer = first_fit_decreasing,
    *,
    max_candidates: int = 64,
) -> X2YSchema:
    """Grid scheme with the capacity split chosen to minimize reducer count.

    Probes up to *max_candidates* split values across the feasible range
    (always including the endpoints and the symmetric split) and keeps the
    one whose ``b_x * b_y`` product is smallest, the first one on ties.  A
    probe builds no schema: the grid of split ``t`` has exactly ``b_x *
    b_y`` reducers, so only the winner is built, with
    :func:`grid_with_split`.  With the default FFD packer a probe is two
    bin counts from the size multiset (:func:`~repro.binpack.ffd.ffd_bin_count`
    over runs of equal sizes built once per side); any other packer packs
    both sides.  Fully general: succeeds on every feasible X2Y instance.
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
    return grid_with_split(instance, best_t, packer=packer)
