"""Schema-driven routing: from a solved schema to per-partition shipping.

The engine's contract with the paper is that a record of input *i*
reaches *exactly* the reducers the mapping schema assigns *i* to.  The
schema fixes those reducers before the job runs, so the engine does not
ship one copy per reducer: :func:`build_schema_plan` compiles the schema
(and :meth:`SchemaPlan.from_members` an app's explicit member lists)
into a :class:`SchemaPlan`, whose :meth:`SchemaPlan.routes` tables let
the engine send each record once to every reduce partition holding one
of its reducers, and let the reduce task rebuild each reducer's value list
from the records it received.  The paper's metrics stay analytical: an
input's pairs and communication are its fan-out (reducers it belongs to)
and fan-out times its size, exactly what per-reducer emission would
count.

Records are wrapped with their input index: ``(i, record)`` for A2A,
multiway and member-list plans, ``(side, i, record)`` with
``side in {"x", "y"}`` for X2Y.  An input's *key* is ``i``, or
``(side, i)`` for X2Y.  A multiway schema has
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
                f"plan expects {expected} records, got more"
            )
        yield index, record
        count += 1
    if count != expected:
        raise InvalidInstanceError(
            f"plan expects {expected} records, got {count}"
        )


def _check_members(lists: tuple[tuple[Any, ...], ...], m: int) -> None:
    """Reject member lists that name an input twice or outside ``0..m-1``."""
    valid = frozenset(range(m))
    for r, reducer in enumerate(lists):
        held = set(reducer)
        if len(held) != len(reducer):
            raise InvalidInstanceError(
                f"reducer {r} lists an input more than once: {reducer}"
            )
        if not held <= valid:
            raise InvalidInstanceError(
                f"reducer {r} lists inputs outside 0..{m - 1}: "
                f"{sorted(held - valid, key=repr)}"
            )


#: One input's map-side route: the reduce partitions it ships to (each
#: once, ascending), its fan-out (reducers it belongs to) and its
#: communication (fan-out times its declared size).
Route = tuple[tuple[int, ...], int, int]

#: Member lists, one tuple of input keys per reducer: a plan's, or one
#: reduce partition's slice of them.
MemberLists = tuple[tuple[Hashable, ...], ...]


@dataclass(frozen=True, eq=False)
class SchemaPlan:
    """A job compiled for execution: wrapped records plus member lists.

    Every job the engine runs is a plan: which inputs each reducer
    receives is fixed before the run.  :func:`build_schema_plan` compiles
    a solved schema, and :meth:`from_members` takes explicit member lists
    (the apps' composite and baseline jobs).

    Attributes:
        records: the wrapped records, in record order (a lazy
            :class:`~repro.dataset.Dataset` when the source was one).
        key_of: wrapped record -> its input key (``i``, or ``(side, i)``
            for X2Y); picklable.
        size_of: wrapped record -> its input's declared size; picklable.
        sizes: input key -> declared size, for every input.
        members: per reducer, its members' input keys.  Sorted, they are
            in record order (for X2Y, the X side then the Y side).
        capacity: the reducer capacity ``q`` checked against each
            reducer's load (the sum of its members' sizes); ``None``
            checks nothing.
    """

    records: list[Any] | Dataset
    key_of: Callable[[Any], Hashable]
    size_of: Callable[[Any], int]
    sizes: dict[Hashable, int]
    members: MemberLists
    capacity: int | None

    @classmethod
    def from_members(
        cls,
        records: Sequence[Any] | Dataset,
        sizes: Sequence[int],
        members: Iterable[Iterable[int]],
        *,
        capacity: int | None,
    ) -> "SchemaPlan":
        """A plan over explicit member lists.

        Record ``i`` has declared size ``sizes[i]`` and is wrapped as
        ``(i, record)`` with key ``i``; ``members[r]`` lists the indices
        of reducer ``r``'s inputs.  A reducer may be empty and an input
        may belong to no reducer.  *records* may be a
        :class:`~repro.dataset.Dataset`; the wrapping then stays lazy and
        a source of unknown length is counted as it streams.

        Raises :class:`~repro.exceptions.InvalidInstanceError` when the
        record count differs from ``len(sizes)``, or a reducer lists an
        index out of range or the same index twice.
        """
        lists = tuple(map(tuple, members))
        _check_members(lists, len(sizes))
        return cls._indexed(records, tuple(sizes), lists, capacity)

    @classmethod
    def _indexed(
        cls,
        records: Sequence[Any] | Dataset,
        sizes: tuple[int, ...],
        lists: tuple[tuple[int, ...], ...],
        capacity: int | None,
    ) -> "SchemaPlan":
        """The plan over member lists known to be valid: the one place
        that wraps, keys and sizes indexed records and checks their count
        (lazily for a stream of unknown length)."""
        m = len(sizes)
        wrapped: list[Any] | Dataset
        if isinstance(records, Dataset):
            if records.length is not None and records.length != m:
                raise InvalidInstanceError(
                    f"plan expects {m} records, got {records.length}"
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
                    f"plan expects {m} records, got {len(records)}"
                )
            wrapped = list(enumerate(records))
        return cls(
            records=wrapped,
            key_of=itemgetter(0),
            size_of=partial(indexed_size, sizes=sizes),
            sizes=dict(enumerate(sizes)),
            members=lists,
            capacity=capacity,
        )

    @property
    def communication_cost(self) -> int:
        """The paper's communication: every member's declared size, summed
        over reducers (fan-out times size, per input)."""
        return sum(
            map(self.sizes.__getitem__, chain.from_iterable(self.members))
        )

    def routes(
        self, num_partitions: int
    ) -> tuple[dict[Hashable, Route], list[MemberLists]]:
        """The route tables for *num_partitions* reduce partitions.

        Returns ``(map_routes, partition_members)``:

        * ``map_routes[key]`` is the input's :data:`Route`, the table the
          parent routes records by;
        * ``partition_members[p]`` is ``members[p::num_partitions]``, the
          member lists of partition ``p``'s reducers in reducer order,
          empty reducers included: slot ``k`` is reducer
          ``p + k * num_partitions``.  It ships with partition ``p``'s
          reduce task only, and the task's results are aligned to it.

        Reducer ``r`` lives in partition ``r % num_partitions``, so task
        counts and task loads depend only on the plan and the partition
        count.

        Raises :class:`~repro.exceptions.InvalidSchemaError` when a
        reducer names a key that is not one of the plan's inputs.
        """
        partition_members = [
            self.members[p::num_partitions] for p in range(num_partitions)
        ]
        parts: dict[Hashable, list[int]] = {key: [] for key in self.sizes}
        fanout: dict[Hashable, int] = {}
        try:
            for p, members_of_p in enumerate(partition_members):
                held = Counter(chain.from_iterable(members_of_p))
                for key, count in held.items():
                    parts[key].append(p)
                    fanout[key] = fanout.get(key, 0) + count
        except KeyError as exc:
            key = exc.args[0]
            reducer = next(
                r for r, members in enumerate(self.members) if key in members
            )
            raise InvalidSchemaError(
                f"reducer {reducer} lists {key!r}, which is not an input "
                "of the plan"
            ) from None
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

    The engine (:func:`repro.engine.engine.execute_schema`) runs the
    plan, and the oracle side of cross-validation
    (:mod:`repro.engine.crossval`) runs the same wrapped records and sizes
    through its own per-reducer routing.  The plan's capacity is the
    instance's ``q``.

    An A2A or multiway schema is its member lists over one list of
    inputs, so it is wrapped, keyed and sized exactly as
    :meth:`SchemaPlan.from_members` does it, which validates the record
    count and keeps a :class:`~repro.dataset.Dataset` source lazy.  X2Y
    takes its two sides
    as sequences (datasets per side are materialized — the sides are
    concatenated and tagged, which needs their lengths anyway).
    """
    if isinstance(schema, (A2ASchema, MultiwaySchema)):
        # A schema's reducers come from its solver, deduplicated by
        # from_lists; from_members' whole-plan member check would add
        # about 40 ms to every run of a 367k-membership schema (10% of
        # the a2a_shuffle benchmark), so a schema skips it.
        return SchemaPlan._indexed(
            records,
            tuple(schema.instance.sizes),
            schema.reducers,
            schema.instance.q,
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
            capacity=instance.q,
        )
    raise TypeError(
        "expected an A2ASchema, X2YSchema or MultiwaySchema, got "
        f"{type(schema).__name__}"
    )
