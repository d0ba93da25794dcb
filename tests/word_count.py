"""Word count as a member-list plan, shared by the engine tests.

Reducer ``r`` owns the ``r``-th distinct word in sorted order and holds
every line containing it; its reduce counts the word's occurrences in
those lines.  A line's size is its word count.  The reduce is
module-level (bound with :func:`functools.partial`) so ``processes``
workers can unpickle it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator, Sequence

from repro.dataset import Dataset
from repro.engine.config import ExecutionConfig
from repro.engine.engine import ExecutionEngine, ReduceFn
from repro.engine.routing import SchemaPlan

RECORDS = [
    "the quick brown fox",
    "the lazy dog",
    "the quick dog jumps",
    "a brown dog",
    "fox and dog and fox",
]


def word_reduce(
    reducer: int, values: list[tuple[int, str]], *, words: tuple[str, ...]
) -> Iterator[tuple[str, int]]:
    """Count reducer *reducer*'s word in the lines it received."""
    word = words[reducer]
    yield word, sum(line.split().count(word) for _, line in values)


def word_engine(
    records: Sequence[str] = RECORDS,
    *,
    source: Dataset | None = None,
    reduce_fn: ReduceFn | None = None,
    capacity: int | None = None,
    strict_capacity: bool = True,
    config: ExecutionConfig | None = None,
    **engine: Any,
) -> ExecutionEngine:
    """The word-count job over *records* on *config* (default serial).

    *source* replaces the records the plan carries (a streaming dataset
    over the same lines), and *reduce_fn* the word-count reduce.
    """
    words = tuple(sorted({w for line in records for w in line.split()}))
    plan = SchemaPlan.from_members(
        records if source is None else source,
        [len(line.split()) for line in records],
        [
            [i for i, line in enumerate(records) if word in line.split()]
            for word in words
        ],
        capacity=capacity,
    )
    return ExecutionEngine(
        plan=plan,
        reduce_fn=reduce_fn or partial(word_reduce, words=words),
        strict_capacity=strict_capacity,
        config=config if config is not None else ExecutionConfig(),
        **engine,
    )
