"""The shuffle-heavy workload's map and reduce functions, shared by tests.

Each record fans out to :data:`FANOUT` small pairs across a 509-key
space and the reduce is a plain sum, so a run's cost is partitioning,
merging, spilling and task plumbing rather than user code.  The functions
are module-level so ``processes`` workers can unpickle them.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

#: Pairs :func:`fanout_map` emits per record.
FANOUT = 24


def fanout_map(record: int) -> list[tuple[int, int]]:
    """24 small pairs across a 509-key space."""
    base = record * 31
    return [((base + f * 67) % 509, 1) for f in range(FANOUT)]


def sum_reduce(key: Any, values: Iterable[int]) -> Iterator[tuple[Any, int]]:
    """Sum the values."""
    yield key, sum(values)
