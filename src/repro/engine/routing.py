"""Schema-driven routing: from a solved schema to per-partition shipping.

The engine's contract with the paper is that a record of input *i*
reaches *exactly* the reducers the mapping schema assigns *i* to.  The
schema fixes those reducers, and with them every reducer's load, before
the job runs, so the engine does not ship one copy per reducer:
:func:`build_schema_plan` compiles the schema (and
:meth:`SchemaPlan.from_members` an app's explicit member lists) into a
:class:`SchemaPlan` that carries the member lists and their loads.
:meth:`SchemaPlan.routes` cuts the reducers into contiguous ranges of
near-equal load, one per reduce partition, and tells the engine which
partitions each record ships to, once each; the reduce task rebuilds
each reducer's value list from the records it received.  The paper's
metrics stay analytical and come from the plan: the job's pairs are its
memberships and its communication the sum of its reducers' loads,
exactly what per-reducer emission would count.

Records are wrapped with their input index: ``(i, record)`` for A2A,
multiway and member-list plans, ``(side, i, record)`` with
``side in {"x", "y"}`` for X2Y.  An input's *key* is ``i``, or
``(side, i)`` for X2Y.  A multiway schema has
the A2A shape (one member tuple per reducer over one list of inputs), so
it is routed and sized exactly like an A2A schema.  A pair of inputs may
meet at several reducers; reduce functions keep the output exactly-once
by letting only the pair's smallest shared reducer emit it.  Reducer *r*
owns a pair it holds iff ``masks[a] & masks[b] & ((1 << r) - 1) == 0``
over the per-input reducer bitmasks of :func:`a2a_reducer_masks` /
:func:`x2y_reducer_masks`, i.e. no earlier reducer holds both (a triple:
all three).  The rule depends on an input only through its mask below
*r*, and the solvers that pack inputs into bins give every input of a
bin the same mask, so :func:`owned_partners` decides it once per group
of inputs with equal masks below *r* (once per pair of groups, or per
triple of groups) and hands the apps only the owned pairs, never a
per-pair test.  :func:`canonical_meeting` computes the same reducer from
membership lists and is the independent reference.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain
from operator import itemgetter
from typing import Any, Callable, Container, Hashable, Iterable, Iterator, Sequence

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
    set-intersection fallback.  The apps decide ownership with the
    equivalent bitmask rule of :func:`a2a_reducer_masks` /
    :func:`x2y_reducer_masks`, through :func:`owned_partners`; this
    function is the reference the tests check that rule against.
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
    :func:`owned_partners` applies the rule inside a reducer.  The masks
    are plain ints, hence picklable into reduce tasks on the
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


def x2y_exact_cover(schema: X2YSchema) -> bool:
    """Whether *schema* holds each cross pair at exactly one reducer.

    A valid schema holds every one of the ``m * n`` cross pairs, and its
    reducers hold ``sum(len(xs) * len(ys))`` of them counted with
    repeats, so the two are equal exactly when no pair is held twice.
    Every reducer then owns all the pairs it holds, and the apps skip
    :func:`x2y_reducer_masks` and :func:`owned_partners`.  Every
    grid-family schema (grids, equal-sized grids, big/small) is such a
    schema.  The count says nothing about a schema that misses a pair.
    """
    held = sum(len(x_part) * len(y_part) for x_part, y_part in schema.reducers)
    return held == schema.instance.m * schema.instance.n


def owned_partners(
    reducer: int,
    held: Sequence[tuple[int, Any]],
    *,
    width: int = 2,
    across: Sequence[tuple[int, Any]] | None = None,
) -> Iterator[tuple[Any, ...]]:
    """The pairs (or *width*-tuples) that *reducer* owns among its inputs.

    *held* lists ``(mask, item)`` for each input the reducer holds, in the
    reducer's order, with *mask* the input's reducer bitmask
    (:func:`a2a_reducer_masks`).  A tuple of held inputs is owned when no
    earlier reducer holds all of them: the AND of their masks has no bit
    below *reducer*.  Yields ``(item_1, ..., item_{width-1}, partners)``
    for each prefix of ``width - 1`` held positions, in lexicographic
    order, that some owned tuple extends: *partners* lists, in order, the
    items after the prefix's last position that complete an owned tuple.
    So the owned tuples come out in lexicographic position order, as a
    per-tuple loop over the held inputs would emit them.

    With *across* (``(mask, item)`` for the reducer's Y inputs, masks from
    :func:`x2y_reducer_masks`) the owned tuples are cross pairs: each held
    X item with every item of *across* that no earlier reducer holds
    together with it, in *across* order.

    Inputs whose masks agree below *reducer* own the same partners, so
    the partner candidates are grouped by that value and each prefix's
    partners are decided once per group and cached per distinct prefix
    mask: a reducer of a bin pairing (two groups) makes a handful of
    tests however many pairs it holds.  When every input is its own group,
    each prefix tests every group, so the work is of the per-pair loop's
    order.
    """
    low = (1 << reducer) - 1
    pool = held if across is None else across
    groups: dict[int, list[int]] = {}
    for position, (mask, _) in enumerate(pool):
        groups.setdefault(mask & low, []).append(position)
    # Each prefix as (AND of its masks below reducer, its items, its last
    # position), in lexicographic order.
    prefixes: list[tuple[int, tuple[Any, ...], int]] = [
        (mask & low, (item,), a) for a, (mask, item) in enumerate(held)
    ]
    for _ in range(width - 2):
        prefixes = [
            (common & mask, head + (item,), b)
            for common, head, a in prefixes
            for b, (mask, item) in enumerate(held[a + 1 :], a + 1)
        ]
    cache: dict[int, tuple[list[int], list[Any]]] = {}
    for common, head, last in prefixes:
        entry = cache.get(common)
        if entry is None:
            positions = [
                p for mask, run in groups.items() if not mask & common for p in run
            ]
            positions.sort()
            entry = cache[common] = (positions, [pool[p][1] for p in positions])
        positions, partners = entry
        if across is None:
            partners = partners[bisect_right(positions, last) :]
        if partners:
            yield (*head, partners)


def default_size(value: Any) -> int:
    """Default value-size function.

    Preference order: an explicit ``size`` attribute (the convention used by
    :mod:`repro.workloads` objects), then ``len`` for sized containers, then
    1 for scalars.  Never returns less than 1 so every shipped value costs
    something, matching the paper's accounting where each copy of an input
    contributes its size.
    """
    size_attr = getattr(value, "size", None)
    if isinstance(size_attr, int) and size_attr > 0:
        return size_attr
    try:
        length = len(value)  # type: ignore[arg-type]
    except TypeError:
        return 1
    return max(1, length)


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


#: Member lists, one tuple of input keys per reducer: a plan's, or one
#: reduce partition's slice of them.
MemberLists = tuple[tuple[Hashable, ...], ...]

#: One reduce partition's share of a plan: its first reducer's index and
#: the member lists of its contiguous range of reducers.
ReducerRange = tuple[int, MemberLists]


def _unknown_member(
    members: MemberLists, inputs: Container[Hashable]
) -> InvalidSchemaError:
    """The error naming the first reducer that lists a key not in
    *inputs*."""
    reducer, key = next(
        (r, key)
        for r, held in enumerate(members)
        for key in held
        if key not in inputs
    )
    return InvalidSchemaError(
        f"reducer {reducer} lists {key!r}, which is not an input of the plan"
    )


def _range_starts(loads: Sequence[int], num_partitions: int) -> list[int]:
    """Where each of *num_partitions* contiguous reducer ranges starts,
    plus the reducer count: range ``p`` is ``starts[p]:starts[p + 1]``.

    Cut ``k`` falls on the reducer boundary whose load prefix sum is
    nearest ``k / num_partitions`` of the total load (ties go to the
    earlier boundary), so the ranges' loads are as even as reducer
    boundaries allow, except that every range keeps at least one reducer
    while there are reducers left: with as many partitions as reducers,
    each reducer is a range of its own.
    """
    prefix = [0, *accumulate(loads)]
    total, count = prefix[-1], len(loads)
    starts = [0]
    for k in range(1, num_partitions):
        low = min(starts[-1] + 1, count)
        high = max(count - num_partitions + k, low)
        target = k * total
        cut = bisect_left(prefix, -(-target // num_partitions), low, high + 1)
        if cut > high:
            cut = high
        elif cut > low and (
            target - prefix[cut - 1] * num_partitions
            <= prefix[cut] * num_partitions - target
        ):
            cut -= 1
        starts.append(cut)
    starts.append(count)
    return starts


@dataclass(frozen=True, eq=False)
class SchemaPlan:
    """A job compiled for execution: wrapped records plus member lists.

    Every job the engine runs is a plan: which inputs each reducer
    receives, and so each reducer's load, is fixed before the run.
    :func:`build_schema_plan` compiles a solved schema, and
    :meth:`from_members` takes explicit member lists (the apps' composite
    and baseline jobs).

    Attributes:
        records: the wrapped records, in record order (a lazy
            :class:`~repro.dataset.Dataset` when the source was one).
        key_of: wrapped record -> its input key (``i``, or ``(side, i)``
            for X2Y); picklable.
        sizes: input key -> declared size, for every input.
        members: per reducer, its members' input keys.  Sorted, they are
            in record order (for X2Y, the X side then the Y side).
        loads: per reducer, the sum of its members' declared sizes (0 for
            an empty reducer).
        capacity: the reducer capacity ``q`` checked against each
            reducer's load; ``None`` checks nothing.
    """

    records: list[Any] | Dataset
    key_of: Callable[[Any], Hashable]
    sizes: dict[Hashable, int]
    members: MemberLists
    loads: tuple[int, ...]
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
        a source of unknown length is counted as it streams.  The
        reducers' loads are summed here, once.

        Raises :class:`~repro.exceptions.InvalidInstanceError` when the
        record count differs from ``len(sizes)``, or a reducer lists an
        index out of range or the same index twice.
        """
        lists = tuple(map(tuple, members))
        sizes = tuple(sizes)
        _check_members(lists, len(sizes))
        size_of = sizes.__getitem__
        loads = tuple(sum(map(size_of, held)) for held in lists)
        return cls._indexed(records, sizes, lists, loads, capacity)

    @classmethod
    def _indexed(
        cls,
        records: Sequence[Any] | Dataset,
        sizes: tuple[int, ...],
        lists: tuple[tuple[int, ...], ...],
        loads: tuple[int, ...],
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
            sizes=dict(enumerate(sizes)),
            members=lists,
            loads=loads,
            capacity=capacity,
        )

    @property
    def communication_cost(self) -> int:
        """The paper's communication: every member's declared size, summed
        over reducers (fan-out times size, per input)."""
        return sum(self.loads)

    def routes(
        self, num_partitions: int
    ) -> tuple[dict[Hashable, list[int]], list[ReducerRange]]:
        """The route tables for *num_partitions* reduce partitions.

        Returns ``(map_routes, ranges)``:

        * ``ranges[p]`` is partition ``p``'s :data:`ReducerRange`: a
          contiguous run of reducers, empty ones included, cut on the
          prefix sums of the plan's loads so the partitions' loads are
          near-equal.  It ships with partition ``p``'s reduce task only;
          concatenating the tasks' outputs in partition order lists them
          in reducer order.
        * ``map_routes[key]`` lists, ascending, the partitions holding one
          of the input's reducers: the parent ships its record once to
          each.

        The ranges depend only on the plan's loads and the partition
        count, so task loads are the same on every run and backend.

        Raises :class:`~repro.exceptions.InvalidSchemaError` when a
        reducer names a key that is not one of the plan's inputs.
        """
        starts = _range_starts(self.loads, num_partitions)
        ranges = [
            (first, self.members[first:end])
            for first, end in zip(starts, starts[1:])
        ]
        map_routes: dict[Hashable, list[int]] = {key: [] for key in self.sizes}
        try:
            for p, (_, members_of_p) in enumerate(ranges):
                for key in sorted(set(chain.from_iterable(members_of_p))):
                    map_routes[key].append(p)
        except (KeyError, TypeError):
            raise _unknown_member(self.members, self.sizes) from None
        return map_routes, ranges


def build_schema_plan(
    schema: A2ASchema | X2YSchema | MultiwaySchema,
    records: Sequence[Any] | Dataset | tuple[Sequence[Any], Sequence[Any]],
) -> SchemaPlan:
    """Compile a schema plus per-input records into a :class:`SchemaPlan`.

    The engine (:func:`repro.engine.engine.execute_schema`) runs the
    plan; the test suite's reference simulator runs the same wrapped
    records and declared sizes through its own per-reducer routing.  The
    plan's capacity is the instance's ``q``.

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
        # the a2a_shuffle benchmark), so a schema skips it, and its loads
        # are the ones the schema caches.
        return SchemaPlan._indexed(
            records,
            tuple(schema.instance.sizes),
            schema.reducers,
            _schema_loads(schema),
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
            sizes=sizes,
            members=tuple(
                tuple(x_keys[i] for i in x_part)
                + tuple(y_keys[j] for j in y_part)
                for x_part, y_part in schema.reducers
            ),
            loads=schema.loads,
            capacity=instance.q,
        )
    raise TypeError(
        "expected an A2ASchema, X2YSchema or MultiwaySchema, got "
        f"{type(schema).__name__}"
    )


def _schema_loads(schema: A2ASchema | MultiwaySchema) -> tuple[int, ...]:
    """The schema's cached loads; a hand-built schema whose reducer names
    a non-input raises the plan's typed error instead of an ``IndexError``."""
    try:
        return schema.loads
    except (IndexError, TypeError):
        raise _unknown_member(
            schema.reducers, range(schema.instance.m)
        ) from None
