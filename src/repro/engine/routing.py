"""Schema-driven routing: from a solved schema to per-partition shipping.

The engine's contract with the paper is that a record of input *i*
reaches *exactly* the reducers the mapping schema assigns *i* to.  The
schema fixes those reducers before the job runs, so the engine does not
ship one copy per reducer: :func:`build_schema_plan` compiles the schema
into a :class:`SchemaPlan`, whose :meth:`SchemaPlan.routes` tables let a
map task send each record once to every reduce partition holding one of
its reducers, and let the reduce task rebuild each reducer's value list
from the records it received.  The paper's metrics stay analytical: an
input's pairs and communication are its fan-out (reducers it belongs to)
and fan-out times its size, exactly what per-reducer emission would
count.

Records are wrapped with their input index: ``(i, record)`` for A2A and
multiway, ``(side, i, record)`` with ``side in {"x", "y"}`` for X2Y.  An
input's *key* is ``i``, or ``(side, i)`` for X2Y.  A multiway schema has
the A2A shape (one member tuple per reducer over one list of inputs), so
it is routed and sized exactly like an A2A schema.  A pair of inputs may
meet at several reducers; reduce functions keep the output exactly-once
by letting only the pair's smallest shared reducer emit it.  The hot
loops test that with per-input reducer bitmasks from
:func:`a2a_reducer_masks` / :func:`x2y_reducer_masks`: reducer *r* owns
a pair it holds iff ``masks[a] & masks[b] & ((1 << r) - 1) == 0``, i.e.
no earlier reducer holds both.  :func:`canonical_meeting` computes the
same reducer from membership lists and is the independent reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from repro.core.multiway import MultiwaySchema
from repro.core.schema import A2ASchema, X2YSchema
from repro.dataset import Dataset
from repro.exceptions import InvalidInstanceError, InvalidSchemaError


def a2a_memberships(schema: A2ASchema | MultiwaySchema) -> list[list[int]]:
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


def a2a_reducer_masks(schema: A2ASchema | MultiwaySchema) -> tuple[int, ...]:
    """Per-input reducer bitmask: bit *r* is set when the input is at *r*.

    One pass over the memberships.  Reducer *r* owns a pair ``(a, b)`` it
    holds iff ``masks[a] & masks[b] & ((1 << r) - 1) == 0`` — no earlier
    reducer holds both, so *r* is the pair's :func:`canonical_meeting`.
    The same test extends to a multiway group: reducer *r* owns a triple
    it holds iff ``masks[a] & masks[b] & masks[c] & ((1 << r) - 1) == 0``.
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


#: One input's map-side route: the reduce partitions it ships to (each
#: once, ascending), its fan-out (reducers it belongs to) and its
#: communication (fan-out times its declared size).
Route = tuple[tuple[int, ...], int, int]

#: One reduce partition's reducers: ``(reducer, member keys)`` pairs in
#: reducer order.
ReducerMembers = list[tuple[int, tuple[Hashable, ...]]]


@dataclass(frozen=True, eq=False)
class SchemaPlan:
    """A schema compiled for execution: wrapped records plus route tables.

    Attributes:
        records: the wrapped records, in record order (a lazy
            :class:`~repro.dataset.Dataset` when the A2A or multiway
            source was one).
        key_of: wrapped record -> its input key (``i``, or ``(side, i)``
            for X2Y); picklable.
        size_of: wrapped record -> its input's declared size; picklable.
        sizes: input key -> declared size, for every input.
        members: per reducer, its members' input keys as the schema lists
            them.  Sorted, they are in record order (for X2Y, the X side
            then the Y side).
    """

    records: list[Any] | Dataset
    key_of: Callable[[Any], Hashable]
    size_of: Callable[[Any], int]
    sizes: dict[Hashable, int]
    members: tuple[tuple[Hashable, ...], ...]

    def routes(
        self, num_partitions: int
    ) -> tuple[dict[Hashable, Route], list[ReducerMembers]]:
        """The route tables for *num_partitions* reduce partitions.

        Returns ``(map_routes, partition_members)``:

        * ``map_routes[key]`` is the input's :data:`Route`, the only table
          map tasks carry;
        * ``partition_members[p]`` lists ``(reducer, members)`` for every
          non-empty reducer of partition ``p`` in reducer order; it ships
          with partition ``p``'s reduce task only.

        Reducer ``r`` lives in partition ``r % num_partitions``, which is
        ``stable_hash(r) % num_partitions``: the partition a keyed shuffle
        hashes reducer key ``r`` to, so task counts and task loads do not
        depend on how the records travel.
        """
        reducers = range(len(self.members))
        partition_members: list[ReducerMembers] = []
        parts: dict[Hashable, list[int]] = {key: [] for key in self.sizes}
        fanout: dict[Hashable, int] = {}
        for p in range(num_partitions):
            members_of_p = self.members[p::num_partitions]
            partition_members.append(
                [
                    (r, members)
                    for r, members in zip(
                        reducers[p::num_partitions], members_of_p
                    )
                    if members
                ]
            )
            held = Counter(chain.from_iterable(members_of_p))
            for key, count in held.items():
                parts[key].append(p)
                fanout[key] = fanout.get(key, 0) + count
        map_routes: dict[Hashable, Route] = {}
        for key, size in self.sizes.items():
            count = fanout.get(key, 0)
            map_routes[key] = (tuple(parts[key]), count, count * size)
        return map_routes, partition_members


def build_schema_plan(
    schema: A2ASchema | X2YSchema | MultiwaySchema,
    records: Sequence[Any] | Dataset | tuple[Sequence[Any], Sequence[Any]],
) -> SchemaPlan:
    """Compile a schema plus per-input records into a :class:`SchemaPlan`.

    This is the single source of how a schema's records are wrapped,
    keyed and sized: the engine
    (:func:`repro.engine.engine.execute_schema`) runs the plan's routes,
    and the simulator side of cross-validation
    (:mod:`repro.engine.crossval`) runs the same wrapped records and sizes
    through its own per-reducer routing.  Validates record counts against
    the instance.

    A multiway schema takes the A2A branch.  An A2A or multiway *records*
    source may be a :class:`~repro.dataset.Dataset`; the
    wrapping then stays lazy (``records`` is itself a dataset), so the
    engine can stream the records without materializing them.  X2Y takes
    its two sides as sequences (datasets per side are materialized — the
    sides are concatenated and tagged, which needs their lengths anyway).
    """
    if isinstance(schema, (A2ASchema, MultiwaySchema)):
        m = schema.instance.m
        wrapped: list[Any] | Dataset
        if isinstance(records, Dataset):
            if records.length is not None and records.length != m:
                raise InvalidInstanceError(
                    f"schema expects {m} records, got {records.length}"
                )
            # The wrapper re-iterates exactly as often as its source, so a
            # single-use source stays single-use (the engine checks that).
            if records.is_single_use:
                wrapped = Dataset(
                    iterator=_enumerate_checked(records, m),
                    length=records.length,
                )
            else:
                wrapped = Dataset.from_factory(
                    partial(_enumerate_checked, records, m),
                    length=records.length,
                )
        else:
            if len(records) != m:
                raise InvalidInstanceError(
                    f"schema expects {m} records, got {len(records)}"
                )
            wrapped = list(enumerate(records))
        return SchemaPlan(
            records=wrapped,
            key_of=itemgetter(0),
            size_of=partial(indexed_size, sizes=schema.instance.sizes),
            sizes=dict(enumerate(schema.instance.sizes)),
            members=schema.reducers,
        )
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
        instance = schema.instance
        if len(x_records) != instance.m or len(y_records) != instance.n:
            raise InvalidInstanceError(
                f"schema expects {instance.m} X records and "
                f"{instance.n} Y records, got "
                f"{len(x_records)} and {len(y_records)}"
            )
        x_keys = [("x", i) for i in range(instance.m)]
        y_keys = [("y", j) for j in range(instance.n)]
        sizes = dict(zip(x_keys, instance.x_sizes))
        sizes.update(zip(y_keys, instance.y_sizes))
        wrapped = [("x", i, record) for i, record in enumerate(x_records)]
        wrapped += [("y", j, record) for j, record in enumerate(y_records)]
        return SchemaPlan(
            records=wrapped,
            key_of=itemgetter(0, 1),
            size_of=partial(
                tagged_size, x_sizes=instance.x_sizes, y_sizes=instance.y_sizes
            ),
            sizes=sizes,
            members=tuple(
                tuple(x_keys[i] for i in x_part)
                + tuple(y_keys[j] for j in y_part)
                for x_part, y_part in schema.reducers
            ),
        )
    raise TypeError(
        "expected an A2ASchema, X2YSchema or MultiwaySchema, got "
        f"{type(schema).__name__}"
    )
