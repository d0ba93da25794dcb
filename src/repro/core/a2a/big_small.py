"""The general A2A scheme: split inputs into *big* and *small*.

A *big* input has size > ``q // 2``; two bigs only co-fit if their sum is
<= q, and no big fits in a half-capacity bin.  The scheme covers the three
kinds of pairs separately:

1. **big-big** — one dedicated reducer per pair of big inputs.  (In a
   *feasible* A2A instance at most one input exceeds q/2 — two bigs that
   must meet would overflow q — so this class is empty in practice; the
   code keeps it so the construction stays correct if the feasibility
   precondition is ever relaxed to partial coverage.);
2. **small-small** — the bin-pairing scheme of
   :mod:`repro.core.a2a.ffd_pairing` on the small inputs alone;
3. **big-small** — for each big input ``i``, pack the smalls into bins of
   the residual capacity ``q - w_i`` and add one reducer ``{i} + bin`` per
   bin, so ``i`` meets every small.

This is the paper's strategy for different-sized inputs in the presence of
big inputs; when there are no bigs it reduces exactly to the bin-pairing
scheme.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Sequence

from repro.binpack.ffd import first_fit_decreasing
from repro.binpack.packing import PackingResult
from repro.core.instance import A2AInstance
from repro.core.schema import A2ASchema
from repro.core.a2a.ffd_pairing import bin_pair_blocks, pair_bins

Packer = Callable[[Sequence[int], int], PackingResult]


def split_big_small(instance: A2AInstance) -> tuple[list[int], list[int]]:
    """Partition input indices into (big, small) relative to ``q // 2``.

    Big means strictly larger than ``q // 2``: such an input can never share
    a half-capacity bin.
    """
    half = instance.q // 2
    big = [i for i, w in enumerate(instance.sizes) if w > half]
    small = [i for i, w in enumerate(instance.sizes) if w <= half]
    return big, small


def big_small(
    instance: A2AInstance,
    packer: Packer = first_fit_decreasing,
) -> A2ASchema:
    """Build a valid schema for any feasible A2A instance.

    Raises :class:`repro.exceptions.InfeasibleInstanceError` when the two
    largest inputs cannot co-fit (then no schema exists at all).
    """
    instance.check_feasible()
    if instance.m == 1:
        return A2ASchema.from_lists(instance, [[0]], algorithm="big_small")

    big, small = split_big_small(instance)
    sizes = instance.sizes
    half = instance.q // 2
    if not big:
        # Bin pairing alone: the reducers are unions of distinct pairs of
        # disjoint, non-empty bins, so none can contain another and the
        # prune below would keep them all, largest first.
        packing = packer(sizes, half)
        lengths = list(map(len, packing.bins))
        blocks = bin_pair_blocks(len(lengths))
        blocks.sort(
            key=lambda block: sum(map(lengths.__getitem__, block)), reverse=True
        )
        return A2ASchema.from_bins(
            instance, packing.bins, blocks, algorithm="big_small"
        )
    reducers: list[list[int]] = []

    # 1. big-big pairs: one reducer each.  Feasibility guarantees every pair
    #    fits because the two largest inputs fit.
    for a in range(len(big)):
        for b in range(a + 1, len(big)):
            reducers.append([big[a], big[b]])

    # 2. small-small pairs via half-capacity bin pairing.
    small_bins: list[list[int]] = []
    if small:
        packing = packer([sizes[i] for i in small], half)
        small_bins = [[small[i] for i in bin_items] for bin_items in packing.bins]
        reducers.extend(pair_bins(small_bins))

    # 3. big-small pairs: re-pack smalls into each big's residual capacity.
    for i in big:
        if not small:
            break
        residual = instance.q - sizes[i]
        packing = packer([sizes[j] for j in small], residual)
        for bin_items in packing.bins:
            reducers.append([i] + [small[j] for j in bin_items])

    # A lone big input with no smalls and no partner still must be emitted.
    if not reducers:
        reducers.append(list(range(instance.m)))

    # Drop reducers fully contained in another (pure cost, no coverage
    # gain): a big-small reducer can be.
    return A2ASchema.from_lists(
        instance, _prune_dominated(reducers), algorithm="big_small"
    )


def _prune_dominated(reducers: list[list[int]]) -> list[list[int]]:
    """Remove reducers whose input set is a subset of another reducer's.

    The construction above can produce containment (e.g. a residual bin that
    equals a half-capacity bin); pruning preserves coverage because any pair
    met in a subset is met in its superset.  Reducers are taken largest
    first, and a candidate is tested only against the kept reducers that
    hold its rarest input (the one in fewest kept reducers so far): a
    superset must hold every input of the candidate, that one included.
    """
    as_sets = [frozenset(r) for r in reducers]
    order = sorted(range(len(as_sets)), key=lambda r: len(as_sets[r]), reverse=True)
    kept: list[frozenset[int]] = []
    kept_lists: list[list[int]] = []
    holding: defaultdict[int, list[int]] = defaultdict(list)
    for r in order:
        candidate = as_sets[r]
        # An empty candidate has no rarest input: every kept reducer holds it.
        rarest = min(
            map(holding.__getitem__, candidate),
            key=len,
            default=range(len(kept)),
        )
        if any(candidate <= kept[k] for k in rarest):
            continue
        for i in candidate:
            holding[i].append(len(kept))
        kept.append(candidate)
        kept_lists.append(reducers[r])
    return kept_lists
