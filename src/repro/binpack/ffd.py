"""First-Fit and First-Fit-Decreasing bin packing.

FFD is the workhorse of the paper's different-sized-input schemes: packing
inputs into bins of capacity ``q/2`` with FFD and then pairing bins yields
the 2-approximation mapping schemas for A2A and X2Y.  FFD uses at most
``(11/9) OPT + 6/9`` bins, which is what makes the pairing schemes' reducer
count provably close to the lower bound.

Both packers, and the bin count :func:`ffd_bin_count`, share one first-fit
loop over *runs* of equal sizes.  First fit puts the first item of a run of
size ``s`` into the first bin with room; the bins before it stay too full,
so the next items go to the same bin until it is full, then on to the next.
Each existing bin therefore takes ``min(left, (capacity - load) // s)`` items
of the run at once, and new bins take ``capacity // s`` each.  A run costs
O(bins) steps whatever its length, so the loop runs in O(runs * bins), where
FFD has one run per distinct size.  It also skips the *closed prefix*: the
leading bins whose load exceeds ``capacity - min(sizes)``, which no item can
enter any more.  Loads only grow, so a closed bin stays closed and
first-fit's choice is unchanged.  Only the bins that materialize item
indices cost O(n) on top; :func:`ffd_bin_loads` and :func:`ffd_bin_count`
work from the size multiset alone.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import groupby

from repro.binpack.packing import PackingResult, validate_packing_inputs
from repro.exceptions import InvalidInstanceError
from repro.utils.validation import check_positive_int

#: ``(size, count)``: *count* consecutive items of equal *size*.
Run = tuple[int, int]


def decreasing_runs(sizes: Iterable[int]) -> list[Run]:
    """The size multiset of *sizes* as runs in decreasing size order, the
    order in which FFD places them."""
    return sorted(Counter(sizes).items(), reverse=True)


def _first_fit_runs(
    runs: Sequence[Run], capacity: int, order: list[int] | None = None
) -> tuple[list[int], list[list[int]]]:
    """First-fit *runs* in turn; return the bin loads and the bins.

    The bins hold item indices only when *order* lists the items' indices
    in placement order (run by run); otherwise they stay empty.
    """
    loads: list[int] = []
    bins: list[list[int]] = []
    if not runs:
        return loads, bins
    closed_above = capacity - min(runs)[0]
    start = 0
    placed = 0
    for size, left in runs:
        room = capacity - size
        b, end = start, len(loads)
        # Fill the open bins with room for *size*, first to last ...
        while left:
            while b < end and loads[b] > room:
                b += 1
            if b == end:
                break
            take = (capacity - loads[b]) // size
            if take > left:
                take = left
            loads[b] += take * size
            if order is not None:
                bins[b] += order[placed : placed + take]
            placed += take
            left -= take
            b += 1
        # ... then open new bins of capacity // size items each.
        per_bin = capacity // size
        while left:
            take = per_bin if left > per_bin else left
            loads.append(take * size)
            if order is not None:
                bins.append(order[placed : placed + take])
            placed += take
            left -= take
        while start < len(loads) and loads[start] > closed_above:
            start += 1
    return loads, bins


def ffd_bin_loads(runs: Sequence[Run], capacity: int) -> list[int]:
    """Bin loads, in bin order, of FFD at *capacity* for the sizes whose
    :func:`decreasing_runs` are *runs*.

    Equals ``first_fit_decreasing(sizes, capacity).bin_loads()`` but places
    whole runs and builds no bins, so a caller probing many capacities
    builds the runs once and pays O(runs * bins) per probe.
    """
    cap = check_positive_int(capacity, "capacity")
    if runs and runs[0][0] > cap:
        raise InvalidInstanceError(
            f"item of size {runs[0][0]} exceeds bin capacity {cap}"
        )
    return _first_fit_runs(runs, cap)[0]


def ffd_bin_count(runs: Sequence[Run], capacity: int) -> int:
    """Bins FFD uses at *capacity* for the sizes whose
    :func:`decreasing_runs` are *runs* (see :func:`ffd_bin_loads`)."""
    return len(ffd_bin_loads(runs, capacity))


def first_fit(sizes: Sequence[int], capacity: int) -> PackingResult:
    """Pack items in the given order, each into the first bin where it fits.

    Opens a new bin when no existing bin has room.
    """
    validated, cap = validate_packing_inputs(tuple(sizes), capacity)
    runs = [(size, len(list(group))) for size, group in groupby(validated)]
    return PackingResult(
        sizes=validated,
        capacity=cap,
        bins=tuple(
            tuple(items)
            for items in _first_fit_runs(runs, cap, list(range(len(validated))))[1]
        ),
        algorithm="first_fit",
    )


def first_fit_decreasing(sizes: Sequence[int], capacity: int) -> PackingResult:
    """First-Fit-Decreasing: sort by size descending, then first-fit.

    The classic 11/9-approximation.  The returned bins reference items by
    their indices in the *original* (unsorted) ``sizes`` sequence; equal
    sizes keep their original relative order.
    """
    validated, cap = validate_packing_inputs(tuple(sizes), capacity)
    order = sorted(range(len(validated)), key=validated.__getitem__, reverse=True)
    return PackingResult(
        sizes=validated,
        capacity=cap,
        bins=tuple(
            tuple(items)
            for items in _first_fit_runs(decreasing_runs(validated), cap, order)[1]
        ),
        algorithm="first_fit_decreasing",
    )
