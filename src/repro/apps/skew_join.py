"""Skew join of X(A, B) and Y(B, C) on the MapReduce engine.

The paper's X2Y motivating application.  A conventional repartition join
sends every tuple with join key ``b`` to reducer ``hash(b)``; a heavy
hitter overloads its reducer far beyond the capacity ``q``.  The
schema-based join detects heavy keys and replaces their single reducer
with an X2Y mapping schema over the key's tuples, so every reducer stays
within ``q`` while the join output remains exactly the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Hashable, Iterator

from repro import planner
from repro.core.schema import X2YSchema
from repro.engine.config import ExecutionConfig
from repro.engine.engine import ExecutionEngine
from repro.engine.metrics import EngineMetrics
from repro.engine.routing import x2y_memberships, x2y_reducer_masks
from repro.mapreduce.metrics import JobMetrics
from repro.obs.trace import Tracer
from repro.planner import Environment, JobSpec, Plan
from repro.workloads.relations import Relation, Tuple2, heavy_hitters

#: Wrapped record shipped through the executors:
#: ``(side, position-within-key-group, join key, payload, size)``.
SkewRecord = tuple[str, int, int, int, int]


@dataclass(frozen=True)
class SkewJoinRun:
    """Result of a distributed join run.

    Attributes:
        triples: the join output ``(a, b, c)`` = (X payload, key, Y payload).
        metrics: analytical job metrics of the run.
        engine: physical execution metrics of the run.
        heavy_keys: join keys handled by X2Y schemas (empty for the
            baseline).
        schemas: the per-heavy-key schemas, keyed by join key.
        plans: the planner's per-heavy-key decision records, keyed by
            join key.
    """

    triples: tuple[tuple[int, int, int], ...]
    metrics: JobMetrics
    engine: EngineMetrics
    heavy_keys: tuple[int, ...] = ()
    schemas: dict[int, X2YSchema] | None = None
    plans: dict[int, Plan] | None = None

    def triple_set(self) -> set[tuple[int, int, int]]:
        """The output as a set for comparison against ground truth."""
        return set(self.triples)


def naive_join(x: Relation, y: Relation) -> set[tuple[int, int, int]]:
    """Ground-truth join computed centrally (no capacity concerns)."""
    y_by_key: dict[int, list[Tuple2]] = {}
    for t in y.tuples:
        y_by_key.setdefault(t.key, []).append(t)
    output = set()
    for tx in x.tuples:
        for ty in y_by_key.get(tx.key, []):
            output.add((tx.payload, tx.key, ty.payload))
    return output


def _hash_map(
    record: tuple[str, Tuple2],
) -> list[tuple[int, tuple[str, Tuple2]]]:
    """Repartition-join mapper: route a tagged tuple to its join key."""
    return [(record[1].key, record)]


def _hash_reduce(
    key: int, values: list[tuple[str, Tuple2]]
) -> Iterator[tuple[int, int, int]]:
    """Repartition-join reducer: cross the X and Y tuples of one key."""
    x_tuples = [t for side, t in values if side == "x"]
    y_tuples = [t for side, t in values if side == "y"]
    for tx in x_tuples:
        for ty in y_tuples:
            yield (tx.payload, key, ty.payload)


def _hash_record_size(record: tuple[str, Tuple2]) -> int:
    """Assignment size of a tagged tuple (its declared tuple size)."""
    return record[1].size


def hash_join(x: Relation, y: Relation, q: int) -> SkewJoinRun:
    """Conventional repartition join: one reducer per join key.

    Runs on the serial engine with non-strict capacity so heavy hitters
    *overflow measurably* instead of crashing — E6 reports exactly that
    overflow.
    """
    engine = ExecutionEngine(
        map_fn=_hash_map,
        reduce_fn=_hash_reduce,
        size_of=_hash_record_size,
        reducer_capacity=q,
        strict_capacity=False,
    )
    records = [("x", t) for t in x.tuples] + [("y", t) for t in y.tuples]
    result = engine.run(records)
    return SkewJoinRun(
        triples=tuple(result.outputs),
        metrics=result.metrics,
        engine=result.engine,
    )


#: Per-heavy-key routing plan: the two per-side membership tables (used by
#: the mapper to replicate tuples) plus the two per-side reducer bitmasks
#: of :func:`x2y_reducer_masks` (used by the reducer to keep the output
#: exactly-once: reducer ``r`` owns a pair no earlier reducer holds).
SkewPlan = tuple[
    tuple[tuple[int, ...], ...],
    tuple[tuple[int, ...], ...],
    tuple[tuple[int, ...], tuple[int, ...]],
]


def _skew_plan(schema: X2YSchema) -> SkewPlan:
    """One heavy key's routing plan, from its X2Y schema."""
    x_members, y_members = x2y_memberships(schema)
    return (
        tuple(tuple(m) for m in x_members),
        tuple(tuple(m) for m in y_members),
        x2y_reducer_masks(schema),
    )


def _skew_map(
    record: SkewRecord,
    *,
    members: dict[int, SkewPlan],
    heavy: frozenset[int],
) -> list[tuple[Hashable, SkewRecord]]:
    """Route one wrapped tuple: hash-style for light keys, schema for heavy.

    Module-level (data bound via :func:`functools.partial`) so the
    ``processes`` backend can pickle it.
    """
    side, pos, key, _, _ = record
    if key not in heavy:
        return [(("light", key), record)]
    plan = members.get(key)
    if plan is None:
        return []  # one-sided heavy key: no partner, no output
    side_members = plan[0] if side == "x" else plan[1]
    return [(("hh", key, r), record) for r in side_members[pos]]


def _skew_reduce(
    key,
    values: list[SkewRecord],
    *,
    members: dict[int, SkewPlan],
) -> Iterator[tuple[int, int, int]]:
    """Join the X and Y tuples that met at this reducer.

    Heavy-key reducers emit a pair only from its canonical meeting reducer,
    keeping the distributed output exactly-once despite replication.  The
    test is the bitmask rule: reducer ``r`` owns a pair when no earlier
    reducer holds both tuples, and an X tuple that no earlier reducer
    holds owns every pair at ``r`` without a per-pair check.
    """
    x_records = [v for v in values if v[0] == "x"]
    y_records = [v for v in values if v[0] == "y"]
    if key[0] == "light":
        for tx in x_records:
            for ty in y_records:
                yield (tx[3], tx[2], ty[3])
        return
    _, join_key, r = key
    x_masks, y_masks = members[join_key][2]
    low = (1 << r) - 1
    for tx in x_records:
        x_payload = tx[3]
        earlier = x_masks[tx[1]] & low
        if not earlier:
            for ty in y_records:
                yield (x_payload, join_key, ty[3])
            continue
        for ty in y_records:
            if not earlier & y_masks[ty[1]]:
                yield (x_payload, join_key, ty[3])


def _skew_record_size(record: SkewRecord) -> int:
    """Assignment size of a wrapped tuple (its declared tuple size)."""
    return record[4]


def _tag(relation: Relation, side: str) -> list[SkewRecord]:
    """Wrap a relation's tuples as :data:`SkewRecord` tuples, in order.

    A tuple's position is its index among the relation's tuples with the
    same join key — the index the per-key schema gives it.  The position
    is a running count per key, so a relation that holds one tuple
    object several times still gives each occurrence its own position.
    """
    seen: dict[int, int] = {}
    records: list[SkewRecord] = []
    for t in relation.tuples:
        position = seen.get(t.key, 0)
        seen[t.key] = position + 1
        records.append((side, position, t.key, t.payload, t.size))
    return records


def heavy_key_spec(
    x_tuples: list[Tuple2],
    y_tuples: list[Tuple2],
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
) -> JobSpec:
    """One heavy join key's tuples as a declarative X2Y spec.

    ``method="planned"`` asks for full cost-based method choice per heavy
    key; other values keep the historical semantics.
    """
    return JobSpec.x2y(
        x_tuples,
        y_tuples,
        q,
        method=None if method == "planned" else method,
        objective=objective,
    )


def schema_skew_join(
    x: Relation,
    y: Relation,
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
    config: ExecutionConfig | None = None,
    tracer: Tracer | None = None,
) -> SkewJoinRun:
    """Skew-aware join: X2Y mapping schemas for heavy keys, hashing for light.

    A key is *heavy* when its combined tuple load exceeds ``q``.  For each
    heavy key the tuples of X and Y (with their individual sizes —
    different-sized inputs, per the paper) form an :class:`X2YInstance`
    solved by *method*; its reducers get composite ids ``("hh", key, r)``.
    Light keys keep the conventional per-key reducer ``("light", key)``.
    Capacity is enforced strictly: by construction nothing overflows.

    The job runs on the engine, on *config* when given (which may set a
    backend, or a ``memory_budget`` for the out-of-core shuffle) and on
    the serial backend otherwise.  ``method="planned"`` plans every heavy
    key's schema cost-based under *objective* and — when no *config* is
    given — resolves the engine configuration from the environment
    probe.  A *tracer* records one ``plan`` span per heavy key plus the
    engine phase spans; a profiling tracer (``Tracer(profile=True)``)
    also attributes CPU/RSS and function time to those phases.
    """
    heavy = heavy_hitters(x, y, q)
    heavy_set = frozenset(heavy)

    x_by_key: dict[int, list[Tuple2]] = {}
    for t in x.tuples:
        x_by_key.setdefault(t.key, []).append(t)
    y_by_key: dict[int, list[Tuple2]] = {}
    for t in y.tuples:
        y_by_key.setdefault(t.key, []).append(t)

    env = Environment.detect()
    schemas: dict[int, X2YSchema] = {}
    plans: dict[int, Plan] = {}
    members: dict[int, SkewPlan] = {}
    for key in heavy:
        x_tuples = x_by_key.get(key, [])
        y_tuples = y_by_key.get(key, [])
        if not x_tuples or not y_tuples:
            # One-sided heavy keys produce no join output at all; skip them
            # entirely rather than ship dead weight.
            continue
        spec = heavy_key_spec(
            x_tuples, y_tuples, q, method=method, objective=objective
        )
        planned = planner.plan(spec, env, tracer=tracer)
        schema = planned.schema()
        plans[key] = planned
        schemas[key] = schema
        members[key] = _skew_plan(schema)

    records = _tag(x, "x") + _tag(y, "y")
    map_fn = partial(_skew_map, members=members, heavy=heavy_set)
    reduce_fn = partial(_skew_reduce, members=members)

    if config is None and method == "planned":
        # The top-level job is not a single schema (composite light/heavy
        # keys), so resolve the engine configuration from the aggregate
        # shape: one reducer per light key plus every heavy schema's
        # reducers, and the communication the mappers will actually ship.
        light_keys = (set(x_by_key) | set(y_by_key)) - heavy_set
        total_reducers = len(light_keys) + sum(
            s.num_reducers for s in schemas.values()
        )
        light_comm = sum(
            t.size
            for t in (*x.tuples, *y.tuples)
            if t.key not in heavy_set
        )
        config = planner.resolve_execution_config(
            env,
            num_reducers=max(1, total_reducers),
            communication_cost=light_comm
            + sum(s.communication_cost for s in schemas.values()),
        )
    engine = ExecutionEngine(
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        size_of=_skew_record_size,
        reducer_capacity=q,
        strict_capacity=True,
        tracer=tracer,
        config=config if config is not None else ExecutionConfig(),
    )
    result = engine.run(records)
    return SkewJoinRun(
        triples=tuple(result.outputs),
        metrics=result.metrics,
        engine=result.engine,
        heavy_keys=tuple(heavy),
        schemas=schemas,
        plans=plans,
    )
