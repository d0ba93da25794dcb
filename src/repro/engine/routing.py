"""Schema-driven routing: from a solved schema to per-record reducer fan-out.

The engine's contract with the paper is that a record of input *i* is
replicated to *exactly* the reducers the mapping schema assigns *i* to.
This module turns a schema into the data structures that implement that —
per-input membership lists — and provides the picklable map/size functions
the engine uses, so schema-driven jobs run unchanged on the ``processes``
backend (closures would not survive pickling).

Records routed by these helpers are wrapped with their input index:
``(i, record)`` for A2A, ``(side, i, record)`` with ``side in {"x", "y"}``
for X2Y.  A pair of inputs may meet at several reducers; reduce functions
keep the output exactly-once by letting only the pair's smallest shared
reducer emit it.  The hot loops test that with per-input reducer bitmasks
from :func:`a2a_reducer_masks` / :func:`x2y_reducer_masks`: reducer *r*
owns a pair it holds iff ``masks[a] & masks[b] & ((1 << r) - 1) == 0``,
i.e. no earlier reducer holds both.  :func:`canonical_meeting` computes
the same reducer from membership lists and is the independent reference.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from repro.core.schema import A2ASchema, X2YSchema
from repro.dataset import Dataset
from repro.exceptions import InvalidInstanceError, InvalidSchemaError


def a2a_memberships(schema: A2ASchema) -> list[list[int]]:
    """Per-input sorted list of reducer indices (one pass over the schema)."""
    memberships: list[list[int]] = [[] for _ in range(schema.instance.m)]
    for r, members in enumerate(schema.reducers):
        for i in members:
            memberships[i].append(r)
    return memberships


def x2y_memberships(schema: X2YSchema) -> tuple[list[list[int]], list[list[int]]]:
    """Per-input reducer lists for both sides of an X2Y schema."""
    x_memberships: list[list[int]] = [[] for _ in range(schema.instance.m)]
    y_memberships: list[list[int]] = [[] for _ in range(schema.instance.n)]
    for r, (x_part, y_part) in enumerate(schema.reducers):
        for i in x_part:
            x_memberships[i].append(r)
        for j in y_part:
            y_memberships[j].append(r)
    return x_memberships, y_memberships


def canonical_meeting(
    reducers_a: Iterable[int], reducers_b: Iterable[int]
) -> int:
    """The canonical reducer of a pair: the smallest shared reducer index.

    A valid schema guarantees the intersection is non-empty; emitting a
    pair's output only when the executing reducer equals this index makes
    the distributed result exactly-once despite replication.

    Membership lists built by :func:`a2a_memberships` and
    :func:`x2y_memberships` are sorted ascending, so the smallest common
    index is found by a linear two-pointer merge — no per-pair set
    construction.  Unsorted inputs still get the correct answer through a
    set-intersection fallback.  Apps that test ownership per *output* pair
    use the equivalent bitmask rule of :func:`a2a_reducer_masks` /
    :func:`x2y_reducer_masks` instead; this function is the reference the
    tests check that rule against.
    """
    seq_a = reducers_a if isinstance(reducers_a, (list, tuple)) else list(reducers_a)
    seq_b = reducers_b if isinstance(reducers_b, (list, tuple)) else list(reducers_b)
    pos_a = pos_b = 0
    len_a, len_b = len(seq_a), len(seq_b)
    while pos_a < len_a and pos_b < len_b:
        item_a, item_b = seq_a[pos_a], seq_b[pos_b]
        if item_a == item_b:
            return item_a
        if item_a < item_b:
            pos_a += 1
        else:
            pos_b += 1
    # The merge can only miss a common element when a list was unsorted;
    # fall back to the exact set intersection before declaring failure.
    common = set(seq_a) & set(seq_b)
    if not common:
        raise InvalidSchemaError(
            "inputs share no reducer; schema is invalid for this pair"
        )
    return min(common)  # pragma: no cover - unsorted-input fallback


def a2a_reducer_masks(schema: A2ASchema) -> tuple[int, ...]:
    """Per-input reducer bitmask: bit *r* is set when the input is at *r*.

    One pass over the memberships.  Reducer *r* owns a pair ``(a, b)`` it
    holds iff ``masks[a] & masks[b] & ((1 << r) - 1) == 0`` — no earlier
    reducer holds both, so *r* is the pair's :func:`canonical_meeting`.
    The masks are plain ints, hence picklable into reduce tasks on the
    ``processes`` backend.
    """
    masks = [0] * schema.instance.m
    for r, members in enumerate(schema.reducers):
        bit = 1 << r
        for i in members:
            masks[i] |= bit
    return tuple(masks)


def x2y_reducer_masks(
    schema: X2YSchema,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-input reducer bitmasks for both sides of an X2Y schema.

    Same construction and ownership rule as :func:`a2a_reducer_masks`,
    with ``a`` an X input and ``b`` a Y input.
    """
    x_masks = [0] * schema.instance.m
    y_masks = [0] * schema.instance.n
    for r, (x_part, y_part) in enumerate(schema.reducers):
        bit = 1 << r
        for i in x_part:
            x_masks[i] |= bit
        for j in y_part:
            y_masks[j] |= bit
    return tuple(x_masks), tuple(y_masks)


def route_a2a(
    record: tuple[int, Any], memberships: tuple[tuple[int, ...], ...]
) -> list[tuple[Hashable, Any]]:
    """Map function for A2A schemas: replicate ``(i, payload)`` to every
    reducer input *i* belongs to.  Module-level, hence picklable under
    :func:`functools.partial`."""
    index, _ = record
    return [(r, record) for r in memberships[index]]


def route_x2y(
    record: tuple[str, int, Any],
    x_memberships: tuple[tuple[int, ...], ...],
    y_memberships: tuple[tuple[int, ...], ...],
) -> list[tuple[Hashable, Any]]:
    """Map function for X2Y schemas: route ``(side, i, payload)`` by its
    side's membership list."""
    side, index, _ = record
    members = x_memberships if side == "x" else y_memberships
    return [(r, record) for r in members[index]]


def indexed_size(record: tuple[int, Any], sizes: tuple[int, ...]) -> int:
    """Size function for A2A-wrapped records: the instance size of input i.

    Using the instance's declared sizes (not a measurement of the payload)
    keeps the engine's capacity accounting identical to the schema's.
    """
    return sizes[record[0]]


def tagged_size(
    record: tuple[str, int, Any],
    x_sizes: tuple[int, ...],
    y_sizes: tuple[int, ...],
) -> int:
    """Size function for X2Y-wrapped records: the side's instance size."""
    side, index, _ = record
    return (x_sizes if side == "x" else y_sizes)[index]


def _enumerate_checked(
    records: Iterable[Any], expected: int
) -> Iterator[tuple[int, Any]]:
    """``enumerate`` that enforces the instance's record count lazily.

    Streaming datasets of unknown length cannot be counted before the run,
    so the count check happens as records flow past: an extra or missing
    record raises :class:`InvalidInstanceError` instead of a confusing
    ``IndexError`` deep inside the membership lookup.
    """
    count = 0
    for index, record in enumerate(records):
        if index >= expected:
            raise InvalidInstanceError(
                f"schema expects {expected} records, got more"
            )
        yield index, record
        count += 1
    if count != expected:
        raise InvalidInstanceError(
            f"schema expects {expected} records, got {count}"
        )


def build_schema_plan(
    schema: A2ASchema | X2YSchema,
    records: Sequence[Any] | Dataset | tuple[Sequence[Any], Sequence[Any]],
) -> tuple[Callable, Callable, list[Any] | Dataset]:
    """Turn a schema plus per-input records into ``(map_fn, size_of, wrapped)``.

    This is the single source of the schema-to-execution encoding: both the
    engine (:func:`repro.engine.engine.execute_schema`) and the simulator
    side of cross-validation (:mod:`repro.engine.crossval`) build their jobs
    from it, so the two executors cannot drift in how records are wrapped,
    routed, or sized.  Validates record counts against the instance.

    An A2A *records* source may be a :class:`~repro.dataset.Dataset`; the
    wrapping then stays lazy (``wrapped`` is itself a dataset), so the
    engine can stream the records without materializing them.  X2Y takes
    its two sides as sequences (datasets per side are materialized — the
    sides are concatenated and tagged, which needs their lengths anyway).
    """
    if isinstance(schema, A2ASchema):
        if isinstance(records, Dataset):
            if (
                records.length is not None
                and records.length != schema.instance.m
            ):
                raise InvalidInstanceError(
                    f"schema expects {schema.instance.m} records, "
                    f"got {records.length}"
                )
            memberships = tuple(tuple(m) for m in a2a_memberships(schema))
            map_fn = partial(route_a2a, memberships=memberships)
            size_of = partial(indexed_size, sizes=schema.instance.sizes)
            # The wrapper re-iterates exactly as often as its source, so a
            # single-use source stays single-use (the engine checks that).
            if records.is_single_use:
                return map_fn, size_of, Dataset(
                    iterator=_enumerate_checked(records, schema.instance.m),
                    length=records.length,
                )
            return map_fn, size_of, Dataset.from_factory(
                partial(_enumerate_checked, records, schema.instance.m),
                length=records.length,
            )
        if len(records) != schema.instance.m:
            raise InvalidInstanceError(
                f"schema expects {schema.instance.m} records, got {len(records)}"
            )
        memberships = tuple(tuple(m) for m in a2a_memberships(schema))
        map_fn = partial(route_a2a, memberships=memberships)
        size_of = partial(indexed_size, sizes=schema.instance.sizes)
        wrapped: list[Any] = list(enumerate(records))
        return map_fn, size_of, wrapped
    if isinstance(schema, X2YSchema):
        try:
            x_records, y_records = records
        except (TypeError, ValueError) as exc:
            raise InvalidInstanceError(
                "X2Y execution takes records as an (x_records, y_records) pair"
            ) from exc
        if isinstance(x_records, Dataset):
            x_records = x_records.materialize()
        if isinstance(y_records, Dataset):
            y_records = y_records.materialize()
        if len(x_records) != schema.instance.m or len(y_records) != schema.instance.n:
            raise InvalidInstanceError(
                f"schema expects {schema.instance.m} X records and "
                f"{schema.instance.n} Y records, got "
                f"{len(x_records)} and {len(y_records)}"
            )
        x_members, y_members = x2y_memberships(schema)
        map_fn = partial(
            route_x2y,
            x_memberships=tuple(tuple(m) for m in x_members),
            y_memberships=tuple(tuple(m) for m in y_members),
        )
        size_of = partial(
            tagged_size,
            x_sizes=schema.instance.x_sizes,
            y_sizes=schema.instance.y_sizes,
        )
        wrapped = [("x", i, record) for i, record in enumerate(x_records)]
        wrapped += [("y", j, record) for j, record in enumerate(y_records)]
        return map_fn, size_of, wrapped
    raise TypeError(
        f"expected an A2ASchema or X2YSchema, got {type(schema).__name__}"
    )
