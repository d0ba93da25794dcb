"""The quadruple-bin A2A scheme for different-sized inputs.

Pack all inputs into bins of capacity ``q // 4`` (First-Fit-Decreasing)
and cover every pair of bins with blocks of at most four bins, one
reducer each: four bins fit together (4 * q/4 <= q), every pair of bins
meets in exactly one block, so every cross-bin pair meets at a reducer and
every within-bin pair meets wherever the bin travels.

The blocks come from :func:`repro.covering.designs.bin_quads`, a recursive
transversal-design cover: with ``p`` the smallest prime at least
``max(3, ceil(b / 4))``, the ``b`` bins form four groups of at most ``p``
and each ``(x, y)`` in ``Z_p^2`` picks one bin per group, then every group
is covered the same way.  An input travels to about ``p ≈ b / 4``
top-level reducers and ``b / 16 + b / 64 + ...`` more inside its group,
about ``b / 3`` in all, where :mod:`repro.core.a2a.triple_bins` sends it
to half of its ``3b / 4`` bins of ``q // 3``, ``3b / 8``: on a
1200-input uniform instance at ``q = 200``, about 10% fewer copies and
reducers.  Small
instances pad to the prime badly, so the planner's fast path picks the
scheme only on predicted counts (:func:`quad_bin_costs`).

Inputs larger than ``q // 4`` do not fit a bin; such instances use
:mod:`repro.core.a2a.triple_bins`, :mod:`repro.core.a2a.ffd_pairing` or
:mod:`repro.core.a2a.big_small`.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul

from repro.binpack.ffd import first_fit_decreasing
from repro.core.instance import A2AInstance
from repro.core.schema import A2ASchema
from repro.covering.designs import bin_quad_counts, bin_quads
from repro.exceptions import InvalidInstanceError


def quad_bin_costs(loads: Sequence[int]) -> tuple[int, int]:
    """Reducers and communication cost of the scheme over bins of *loads*.

    Equals ``(schema.num_reducers, schema.communication_cost)`` of the
    schema :func:`quad_bins` builds from a packing with these bin loads,
    but counts each bin's blocks in closed form
    (:func:`~repro.covering.designs.bin_quad_counts`): neither the blocks
    nor member lists are built, so the planner enumerates the blocks only
    for the scheme it builds.
    """
    count, held = bin_quad_counts(len(loads))
    return count, sum(map(mul, loads, held))


def quad_bins(instance: A2AInstance) -> A2ASchema:
    """Build the quadruple-bin schema for an instance with all sizes <= q // 4.

    Raises :class:`InvalidInstanceError` when some input exceeds ``q // 4``,
    before any packing.
    """
    quarter = instance.q // 4
    oversized = [i for i, w in enumerate(instance.sizes) if w > quarter]
    if oversized:
        raise InvalidInstanceError(
            f"{len(oversized)} input(s) exceed q//4 = {quarter} "
            f"(first: index {oversized[0]}, size {instance.sizes[oversized[0]]}); "
            "use triple bins, bin-pairing or the big/small algorithm"
        )
    bins = first_fit_decreasing(instance.sizes, quarter).bins
    return A2ASchema.from_bins(
        instance, bins, bin_quads(len(bins)), algorithm="quad_bins"
    )
