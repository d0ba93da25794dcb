"""The bin-packing-based A2A scheme for different-sized inputs.

Pack all inputs into bins of capacity ``q // 2`` (First-Fit-Decreasing by
default) and assign every pair of bins to one reducer.  Any two bins fit
together (2 * q/2 <= q), every cross-bin pair meets at that reducer, and
every within-bin pair meets wherever the bin travels.  With ``b`` bins the
scheme uses ``C(b, 2)`` reducers; since an optimal schema cannot do better
than the packing lower bound on ``b``, this is the paper's
constant-factor approximation for inputs no larger than ``q/2``.

Inputs larger than ``q/2`` cannot enter a half-capacity bin; they are the
*big inputs* handled by :mod:`repro.core.a2a.big_small`, which delegates
the small ones back here.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import combinations

from repro.binpack.ffd import first_fit_decreasing
from repro.binpack.packing import PackingResult
from repro.core.instance import A2AInstance
from repro.core.schema import A2ASchema
from repro.exceptions import InvalidInstanceError

Packer = Callable[[Sequence[int], int], PackingResult]


def bin_pair_blocks(num_bins: int) -> list[tuple[int, ...]]:
    """The bins of each bin-pairing reducer: one block per unordered pair
    of bins, ``(a, b)`` with ``a < b`` in lexicographic order, or the one
    block ``(0,)`` for a single bin, so within-bin pairs are still
    covered.  :meth:`A2ASchema.from_bins` turns the blocks into reducers.
    """
    if num_bins == 1:
        return [(0,)]
    return list(combinations(range(num_bins), 2))


def pair_bins(bins: Sequence[Sequence[int]]) -> list[list[int]]:
    """Turn bins of input indices into reducers: one per unordered bin pair,
    in :func:`bin_pair_blocks` order.

    Exposed separately so big/small and ablation code can reuse the
    pairing step with their own packings.
    """
    return [
        [i for b in block for i in bins[b]]
        for block in bin_pair_blocks(len(bins))
    ]


def ffd_pairing(
    instance: A2AInstance,
    packer: Packer = first_fit_decreasing,
) -> A2ASchema:
    """Build the bin-pairing schema for an instance with all sizes <= q // 2.

    *packer* may be any :mod:`repro.binpack` heuristic (the E8 ablation sweeps
    them); it receives the sizes and the half-capacity ``q // 2``.

    Raises :class:`InvalidInstanceError` when some input exceeds ``q // 2`` —
    use :func:`repro.core.a2a.big_small.big_small` for the general case.
    """
    half = instance.q // 2
    oversized = [i for i, w in enumerate(instance.sizes) if w > half]
    if oversized:
        raise InvalidInstanceError(
            f"{len(oversized)} input(s) exceed q//2 = {half} "
            f"(first: index {oversized[0]}, size {instance.sizes[oversized[0]]}); "
            "use the big/small algorithm for instances with big inputs"
        )
    if instance.m == 1:
        return A2ASchema.from_lists(instance, [[0]], algorithm="ffd_pairing")

    packing = packer(instance.sizes, half)
    return A2ASchema.from_bins(
        instance,
        packing.bins,
        bin_pair_blocks(len(packing.bins)),
        algorithm=f"bin_pairing[{packing.algorithm}]",
    )
