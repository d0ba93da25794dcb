"""Record sources for the execution stack: in-memory or streaming.

The engine, the apps, and the workload generators all pass records around;
until now that always meant a materialized ``list``, which caps every job
at what fits in one process.  :class:`Dataset` generalizes the record
source to three shapes with one interface:

* **list-backed** — :meth:`Dataset.from_list`; behaves exactly like the
  old path (``length`` known, cheap re-iteration, the engine keeps its
  materialized fast path).
* **factory-backed** — :meth:`Dataset.from_factory` wraps a zero-argument
  callable returning a fresh iterator; records are produced on demand and
  never held all at once.  Re-iterable, so cross-validation can run the
  same source through both executors.
* **iterator-backed** — :func:`as_dataset` over a bare generator; single
  use (a second iteration raises), for pipelines that truly stream.

``length`` is ``None`` when unknown; the plan then counts the records as
they stream.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.exceptions import InvalidInstanceError


class Dataset:
    """A source of records: materialized list or lazily produced stream."""

    def __init__(
        self,
        *,
        items: list[Any] | None = None,
        factory: Callable[[], Iterable[Any]] | None = None,
        iterator: Iterator[Any] | None = None,
        length: int | None = None,
    ):
        provided = [s for s in (items, factory, iterator) if s is not None]
        if len(provided) != 1:
            raise InvalidInstanceError(
                "Dataset takes exactly one of items/factory/iterator"
            )
        if length is not None and length < 0:
            raise InvalidInstanceError(
                f"Dataset length must be non-negative, got {length}"
            )
        self._items = items
        self._factory = factory
        self._iterator = iterator
        self._consumed = False
        self.length = len(items) if items is not None else length

    @classmethod
    def from_list(cls, items: Iterable[Any]) -> "Dataset":
        """A materialized dataset (length known, freely re-iterable)."""
        return cls(items=list(items))

    @classmethod
    def from_factory(
        cls, factory: Callable[[], Iterable[Any]], *, length: int | None = None
    ) -> "Dataset":
        """A streaming dataset built from a fresh-iterator factory.

        The factory is invoked once per iteration, so the dataset is
        re-iterable as long as the factory is (ranges, file readers,
        generator functions all qualify).  Pass *length* when the record
        count is known so a plan can check it before the run.
        """
        if not callable(factory):
            raise InvalidInstanceError("Dataset factory must be callable")
        return cls(factory=factory, length=length)

    @property
    def is_materialized(self) -> bool:
        """True when the records are already held in memory as a list."""
        return self._items is not None

    @property
    def is_single_use(self) -> bool:
        """True for an iterator-backed source, which iterates only once."""
        return self._iterator is not None

    def __iter__(self) -> Iterator[Any]:
        if self._items is not None:
            return iter(self._items)
        if self._factory is not None:
            return iter(self._factory())
        if self._consumed:
            raise InvalidInstanceError(
                "iterator-backed Dataset is single-use and was already "
                "consumed; build it with Dataset.from_factory to re-iterate"
            )
        self._consumed = True
        return self._iterator

    def materialize(self) -> list[Any]:
        """The records as a list (the list itself for list-backed sources)."""
        if self._items is not None:
            return self._items
        return list(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = (
            "list"
            if self._items is not None
            else "factory"
            if self._factory is not None
            else "iterator"
        )
        return f"Dataset({kind}, length={self.length})"


def as_dataset(records: Any) -> Dataset:
    """Coerce any record source into a :class:`Dataset`.

    Datasets pass through; lists and tuples wrap without copying semantics
    changes; any other iterable becomes a single-use iterator-backed
    dataset (its length unknown).
    """
    if isinstance(records, Dataset):
        return records
    if isinstance(records, list):
        return Dataset(items=records)
    if isinstance(records, (tuple, range)):
        return Dataset.from_list(records)
    if hasattr(records, "__iter__"):
        return Dataset(iterator=iter(records))
    raise InvalidInstanceError(
        f"cannot build a Dataset from {type(records).__name__}"
    )

