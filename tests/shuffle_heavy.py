"""The shuffle-heavy workload as a member-list plan, shared by tests.

Each record is sent to :data:`FANOUT` of :data:`KEYS` reducers and the
reduce counts what it received, so a run's cost is routing, spilling and
task plumbing rather than user code.  Every record has size 1.  The
reduce is module-level so ``processes`` workers can unpickle it.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.dataset import Dataset
from repro.engine.routing import SchemaPlan

#: Reducers each record is sent to.
FANOUT = 24

#: Reducers in the plan (a prime, so one record's reducers are distinct).
KEYS = 509


def fanout_reducers(record: int) -> list[int]:
    """The 24 reducers, out of 509, that *record* is sent to."""
    base = record * 31
    return [(base + f * 67) % KEYS for f in range(FANOUT)]


def fanout_plan(
    records: Iterable[int],
    *,
    source: Dataset | None = None,
    capacity: int | None = None,
) -> SchemaPlan:
    """The fan-out job: each of the 509 reducers holds the records
    :func:`fanout_reducers` sends it.  *source* replaces the records the
    plan carries (a streaming dataset of the same values)."""
    records = list(records)
    members: list[list[int]] = [[] for _ in range(KEYS)]
    for i, record in enumerate(records):
        for r in fanout_reducers(record):
            members[r].append(i)
    return SchemaPlan.from_members(
        records if source is None else source,
        [1] * len(records),
        members,
        capacity=capacity,
    )


def sum_reduce(key: Any, values: Iterable[Any]) -> Iterator[tuple[Any, int]]:
    """Count the records a reducer received (each record counts 1)."""
    yield key, sum(1 for _ in values)
