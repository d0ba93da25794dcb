"""Core data model for the bin-packing substrate.

The different-sized-input schemes of the paper reduce reducer assignment to
bin packing: inputs are packed into *bins* of capacity ``q/2`` (A2A) or into
side-specific bins (X2Y), and bins are then paired into reducers.  This
module defines the bin and packing-result types shared by every packing
algorithm in :mod:`repro.binpack`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import InvalidInstanceError
from repro.utils.validation import check_positive_int


@dataclass
class Bin:
    """A single bin: a capacity plus the items (by index) placed in it.

    ``items`` stores the indices of the packed items in the *original* size
    list, so callers can always map a packing back to concrete inputs.
    """

    capacity: int
    items: list[int] = field(default_factory=list)
    load: int = 0

    def fits(self, size: int) -> bool:
        """Whether an item of *size* fits in the remaining capacity."""
        return self.load + size <= self.capacity

    def add(self, index: int, size: int) -> None:
        """Place item *index* of *size* into the bin.

        Raises :class:`ValueError` if the item does not fit; packing
        algorithms are expected to call :meth:`fits` first.
        """
        if not self.fits(size):
            raise ValueError(
                f"item {index} of size {size} does not fit: load {self.load}, "
                f"capacity {self.capacity}"
            )
        self.items.append(index)
        self.load += size

    @property
    def residual(self) -> int:
        """Remaining capacity."""
        return self.capacity - self.load


@dataclass(frozen=True)
class PackingResult:
    """Immutable outcome of a packing run.

    Attributes:
        sizes: the item sizes that were packed (validated copy).
        capacity: the bin capacity used.
        bins: tuple of item-index tuples, one per bin, in creation order.
        algorithm: name of the algorithm that produced the packing.
    """

    sizes: tuple[int, ...]
    capacity: int
    bins: tuple[tuple[int, ...], ...]
    algorithm: str

    @property
    def num_bins(self) -> int:
        """Number of bins used."""
        return len(self.bins)

    def bin_loads(self) -> list[int]:
        """Total size packed into each bin, in bin order."""
        return [sum(self.sizes[i] for i in bin_items) for bin_items in self.bins]

    def validate(self) -> None:
        """Check the packing is a partition of all items within capacity.

        Raises :class:`AssertionError` on violation; used by tests and by
        algorithms in their own self-checks.
        """
        seen: set[int] = set()
        for bin_items in self.bins:
            load = 0
            for index in bin_items:
                assert 0 <= index < len(self.sizes), f"item index {index} out of range"
                assert index not in seen, f"item {index} packed twice"
                seen.add(index)
                load += self.sizes[index]
            assert load <= self.capacity, (
                f"bin load {load} exceeds capacity {self.capacity}"
            )
        assert seen == set(range(len(self.sizes))), "packing is not a partition"


def validate_packing_inputs(sizes: list[int] | tuple[int, ...], capacity: object) -> tuple[tuple[int, ...], int]:
    """Shared argument validation for every packing algorithm.

    Returns the sizes as a tuple of positive ints and the capacity as an int,
    and rejects items larger than the capacity (they can never be packed).
    Sizes that are already plain ``int``s within ``1..capacity`` pass
    without per-item coercion; anything else takes the per-item checks,
    which also produce the error messages.
    """
    if (
        type(capacity) is int
        and capacity > 0
        and all(type(s) is int for s in sizes)
        and (not sizes or 0 < min(sizes) <= max(sizes) <= capacity)
    ):
        return tuple(sizes), capacity
    validated = tuple(check_positive_int(s, f"sizes[{i}]") for i, s in enumerate(sizes))
    cap = check_positive_int(capacity, "capacity")
    for i, size in enumerate(validated):
        if size > cap:
            raise InvalidInstanceError(
                f"item {i} of size {size} exceeds bin capacity {cap}"
            )
    return validated, cap
