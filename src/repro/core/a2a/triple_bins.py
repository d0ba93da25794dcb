"""The triple-bin A2A scheme for different-sized inputs.

Pack all inputs into bins of capacity ``q // 3`` (First-Fit-Decreasing)
and let a Steiner triple system over the bins pick the reducers: three
bins fit together (3 * q/3 <= q), and every pair of bins lies in exactly
one triple, so every cross-bin pair meets at one reducer and every
within-bin pair meets wherever the bin travels.

The Bose construction (:func:`repro.covering.designs.steiner_triple_system`)
needs ``t ≡ 3 (mod 6)`` points, so ``b`` bins are padded with up to five
empty bins to the next such ``t``.  A triple holding fewer than two real
bins covers no pair and is dropped; every pair of real bins still lies in
exactly one kept triple.  With about ``b^2 / 6`` reducers, each input
travels to about ``b / 2`` of them where bin-pairing's ``q // 2`` bins
send it to ``b' - 1 ≈ 2b/3``: roughly a quarter fewer copies.

Inputs larger than ``q // 3`` do not fit a bin; such instances use
:mod:`repro.core.a2a.ffd_pairing` or :mod:`repro.core.a2a.big_small`.
When every input fits ``q // 4``, :mod:`repro.core.a2a.quad_bins` covers
pairs of bins with blocks of four, and on large instances it beats this
scheme on both reducers and communication; the planner's fast path
picks between them on predicted counts.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.binpack.ffd import first_fit_decreasing
from repro.core.instance import A2AInstance
from repro.core.schema import A2ASchema
from repro.covering.designs import steiner_triple_system
from repro.exceptions import InvalidInstanceError


def bin_triples(num_bins: int) -> list[tuple[int, int, int]]:
    """The reducers of the scheme over *num_bins* bins (at least 4), as
    sorted triples of bin indices.

    Indices from *num_bins* up are the padding bins, so a sorted triple
    holds two real bins exactly when its middle index is below
    *num_bins*.
    """
    padded = num_bins + (3 - num_bins) % 6
    return [
        triple
        for triple in steiner_triple_system(padded)
        if triple[1] < num_bins
    ]


def triple_bin_costs(loads: Sequence[int]) -> tuple[int, int]:
    """Reducers and communication cost of the scheme over bins of *loads*.

    Equals ``(schema.num_reducers, schema.communication_cost)`` of the
    schema :func:`triple_bins` builds from a packing with these bin loads,
    but counts from the triples' bin indices and builds no member lists.
    """
    if len(loads) <= 3:
        return 1, sum(loads)
    triples = bin_triples(len(loads))
    padded = [*loads, 0, 0, 0, 0, 0]
    return len(triples), sum(
        padded[a] + padded[b] + padded[c] for a, b, c in triples
    )


def triple_bins(instance: A2AInstance) -> A2ASchema:
    """Build the triple-bin schema for an instance with all sizes <= q // 3.

    Raises :class:`InvalidInstanceError` when some input exceeds ``q // 3``.
    """
    third = instance.q // 3
    oversized = [i for i, w in enumerate(instance.sizes) if w > third]
    if oversized:
        raise InvalidInstanceError(
            f"{len(oversized)} input(s) exceed q//3 = {third} "
            f"(first: index {oversized[0]}, size {instance.sizes[oversized[0]]}); "
            "use bin-pairing or the big/small algorithm"
        )
    bins = first_fit_decreasing(instance.sizes, third).bins
    if len(bins) <= 3:
        blocks: list[tuple[int, ...]] = [tuple(range(len(bins)))]
    else:
        blocks = list(bin_triples(len(bins)))
    padded = (*bins, (), (), (), (), ())
    return A2ASchema.from_bins(instance, padded, blocks, algorithm="triple_bins")
