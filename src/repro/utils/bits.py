"""Small helpers for sets of indices kept as integer bitmasks.

Bit ``i`` of a mask stands for index ``i``.  The greedy cover solvers and
the schema verifiers keep pair coverage this way, so that a set union is
one OR and a set size is one popcount.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits of *mask*, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class FitMasks:
    """The mask of the indices whose size fits in a given room.

    ``within(room)`` is one bisection into the ascending sizes and one
    list lookup, however many indices fit.
    """

    __slots__ = ("_ascending", "_prefix")

    def __init__(self, sizes: Sequence[int]) -> None:
        order = sorted(range(len(sizes)), key=sizes.__getitem__)
        self._ascending = [sizes[i] for i in order]
        # _prefix[k] holds the k smallest indices.
        self._prefix = [0]
        for i in order:
            self._prefix.append(self._prefix[-1] | 1 << i)

    def within(self, room: int) -> int:
        """Mask of the indices of size at most *room*."""
        return self._prefix[bisect_right(self._ascending, room)]
