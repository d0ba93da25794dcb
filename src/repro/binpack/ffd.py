"""First-Fit and First-Fit-Decreasing bin packing.

FFD is the workhorse of the paper's different-sized-input schemes: packing
inputs into bins of capacity ``q/2`` with FFD and then pairing bins yields
the 2-approximation mapping schemas for A2A and X2Y.  FFD uses at most
``(11/9) OPT + 6/9`` bins, which is what makes the pairing schemes' reducer
count provably close to the lower bound.

Both packers share one first-fit loop over a list of bin loads.  It runs in
O(n * bins) in the worst case, but skips the *closed prefix*: the leading
bins whose load exceeds ``capacity - min(sizes)``, which no item can enter
any more.  Loads only grow, so a closed bin stays closed and first-fit's
choice is unchanged; when bins fill in order (equal or near-equal sizes)
each item then scans O(1) bins.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.binpack.packing import PackingResult, validate_packing_inputs


def _first_fit_bins(
    sizes: tuple[int, ...], capacity: int, order: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """Place items in *order*, each into the first bin with room for it."""
    if not sizes:
        return ()
    closed_above = capacity - min(sizes)
    loads: list[int] = []
    bins: list[list[int]] = []
    start = 0
    for index in order:
        size = sizes[index]
        room = capacity - size
        b, end = start, len(loads)
        while b < end and loads[b] > room:
            b += 1
        if b == end:
            loads.append(size)
            bins.append([index])
        else:
            loads[b] += size
            bins[b].append(index)
        if b == start:
            # A placement past the first open bin cannot close it.
            while start < len(loads) and loads[start] > closed_above:
                start += 1
    return tuple(tuple(items) for items in bins)


def first_fit(sizes: Sequence[int], capacity: int) -> PackingResult:
    """Pack items in the given order, each into the first bin where it fits.

    Opens a new bin when no existing bin has room.
    """
    validated, cap = validate_packing_inputs(tuple(sizes), capacity)
    return PackingResult(
        sizes=validated,
        capacity=cap,
        bins=_first_fit_bins(validated, cap, range(len(validated))),
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
        bins=_first_fit_bins(validated, cap, order),
        algorithm="first_fit_decreasing",
    )
