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
from typing import Iterable, Iterator

from repro import planner
from repro.core.schema import X2YSchema
from repro.engine.config import ExecutionConfig
from repro.engine.engine import ExecutionEngine
from repro.engine.metrics import EngineMetrics, JobMetrics
from repro.engine.routing import (
    SchemaPlan,
    owned_partners,
    x2y_exact_cover,
    x2y_reducer_masks,
)
from repro.obs.trace import Tracer
from repro.planner import Environment, JobSpec, Plan
from repro.workloads.relations import Relation, Tuple2, heavy_hitters

#: A tuple as the skew join's plan carries it:
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


def _by_key(keys: Iterable[int], start: int = 0) -> dict[int, list[int]]:
    """Record indices grouped by join key, in record order, given each
    record's join key; the first record has index *start*."""
    groups: dict[int, list[int]] = {}
    for index, key in enumerate(keys, start):
        groups.setdefault(key, []).append(index)
    return groups


def _hash_reduce(
    reducer: int,
    values: list[tuple[int, tuple[str, Tuple2]]],
    *,
    keys: tuple[int, ...],
) -> Iterator[tuple[int, int, int]]:
    """Repartition-join reducer: cross the X and Y tuples of one key.

    *keys* maps each reducer index to its join key.
    """
    key = keys[reducer]
    x_tuples = [t for _, (side, t) in values if side == "x"]
    y_tuples = [t for _, (side, t) in values if side == "y"]
    for tx in x_tuples:
        for ty in y_tuples:
            yield (tx.payload, key, ty.payload)


def _hash_join_engine(x: Relation, y: Relation, q: int) -> ExecutionEngine:
    """The repartition join as a plan: one reducer per join key, in
    sorted key order, holding every tuple with that key; non-strict
    capacity ``q``."""
    records = [("x", t) for t in x.tuples] + [("y", t) for t in y.tuples]
    groups = _by_key(t.key for _, t in records)
    keys = tuple(sorted(groups))
    plan = SchemaPlan.from_members(
        records,
        [t.size for _, t in records],
        [groups[key] for key in keys],
        capacity=q,
    )
    return ExecutionEngine(
        plan=plan,
        reduce_fn=partial(_hash_reduce, keys=keys),
        strict_capacity=False,
    )


def hash_join(x: Relation, y: Relation, q: int) -> SkewJoinRun:
    """Conventional repartition join: one reducer per join key.

    Runs on the serial engine with non-strict capacity so heavy hitters
    *overflow measurably* instead of crashing — E6 reports exactly that
    overflow.  The metrics' reducer loads and violations are keyed by
    reducer index, in sorted join-key order.
    """
    result = _hash_join_engine(x, y, q).run()
    return SkewJoinRun(
        triples=tuple(result.outputs),
        metrics=result.metrics,
        engine=result.engine,
    )


#: What the skew join's reduce knows about reducer ``r``:
#: ``(join key, local reducer)`` for a heavy key's X2Y reducer, or
#: ``(join key, None)`` for a light key's single reducer.
SkewOwner = tuple[int, int | None]


def _skew_reduce(
    reducer: int,
    values: list[tuple[int, SkewRecord]],
    *,
    owners: tuple[SkewOwner, ...],
    masks: dict[int, tuple[tuple[int, ...], tuple[int, ...]]],
) -> list[tuple[int, int, int]]:
    """Join the X and Y tuples that met at this reducer.

    *owners* maps the reducer index to its join key and local reducer.
    A light key's reducer, and a reducer of a heavy key whose schema
    holds each pair once (:func:`x2y_exact_cover`, every grid-family
    schema), emit their whole cross product.  *masks* holds
    :func:`x2y_reducer_masks` for the other heavy keys only; there a
    reducer emits a pair only from its canonical meeting reducer,
    keeping the distributed output exactly-once despite replication.
    The test is the bitmask rule: local reducer ``r`` owns a pair when
    no earlier reducer of the key holds both tuples.
    :func:`owned_partners` decides it once per pair of groups of tuples
    with equal masks, not once per held pair, and yields what the cross
    product would on a schema that holds each pair once.
    """
    join_key, r = owners[reducer]
    x_records = [v for _, v in values if v[0] == "x"]
    y_records = [v for _, v in values if v[0] == "y"]
    if r is None or join_key not in masks:
        return [(tx[3], join_key, ty[3]) for tx in x_records for ty in y_records]
    x_masks, y_masks = masks[join_key]
    owned = owned_partners(
        r,
        [(x_masks[tx[1]], tx[3]) for tx in x_records],
        across=[(y_masks[ty[1]], ty[3]) for ty in y_records],
    )
    return [
        (x_payload, join_key, y_payload)
        for x_payload, y_payloads in owned
        for y_payload in y_payloads
    ]


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


def _skew_join_engine(
    x: Relation,
    y: Relation,
    q: int,
    heavy: Iterable[int],
    schemas: dict[int, X2YSchema],
    *,
    config: ExecutionConfig | None = None,
    tracer: Tracer | None = None,
) -> ExecutionEngine:
    """The skew join as one plan, with strict capacity ``q``.

    Reducers are, in order: every heavy key's X2Y reducers (keys sorted,
    each key's reducers in schema order), then one reducer per light key
    (sorted).  A heavy key without a schema (it is one-sided, so it has no
    output) puts its tuples in no reducer.  Ownership masks are built only
    for the heavy keys whose schema holds some pair twice.  Without a
    *config*, the job is not a single schema, so the config is resolved
    from the plan's aggregate shape: its communication and input sizes.
    """
    x_records = _tag(x, "x")
    y_records = _tag(y, "y")
    records = x_records + y_records
    xs_of = _by_key([record[2] for record in x_records])
    ys_of = _by_key([record[2] for record in y_records], len(x_records))
    members: list[list[int]] = []
    owners: list[SkewOwner] = []
    for key in sorted(schemas):
        xs, ys = xs_of[key], ys_of[key]
        for r, (x_part, y_part) in enumerate(schemas[key].reducers):
            members.append([xs[a] for a in x_part] + [ys[b] for b in y_part])
            owners.append((key, r))
    for key in sorted((xs_of.keys() | ys_of.keys()) - set(heavy)):
        members.append(xs_of.get(key, []) + ys_of.get(key, []))
        owners.append((key, None))
    plan = SchemaPlan.from_members(
        records, [record[4] for record in records], members, capacity=q
    )
    masks = {
        key: x2y_reducer_masks(schema)
        for key, schema in schemas.items()
        if not x2y_exact_cover(schema)
    }
    if config is None:
        config = planner.resolve_execution_config(
            Environment.detect(),
            communication_cost=plan.communication_cost,
            total_size=sum(plan.sizes.values()),
            num_inputs=len(plan.sizes),
        )
    return ExecutionEngine(
        plan=plan,
        reduce_fn=partial(_skew_reduce, owners=tuple(owners), masks=masks),
        strict_capacity=True,
        tracer=tracer,
        config=config,
    )


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
    """Skew-aware join: X2Y mapping schemas for heavy keys, one reducer
    per light key.

    A key is *heavy* when its combined tuple load exceeds ``q``.  For each
    heavy key the tuples of X and Y (with their individual sizes —
    different-sized inputs, per the paper) form an :class:`X2YInstance`
    solved by *method*.  Light keys keep the conventional per-key reducer.
    All of it runs as one plan (:func:`_skew_join_engine`): the heavy
    keys' reducers in sorted key order, then the light keys', so the
    metrics' reducer loads are keyed by that reducer index.  Capacity is
    enforced strictly: by construction nothing overflows.

    The job runs on the engine, on *config* when given (which may set a
    backend, or a ``memory_budget`` for the out-of-core shuffle) and
    otherwise on the config resolved for this machine from the whole
    job's shape, whatever the *method*.  ``method="planned"`` plans every
    heavy key's schema cost-based under *objective*.  A *tracer* records
    one ``plan`` span per heavy key plus the engine phase spans; a
    profiling tracer (``Tracer(profile=True)``) also attributes CPU/RSS
    and function time to those phases.
    """
    heavy = heavy_hitters(x, y, q)

    x_by_key: dict[int, list[Tuple2]] = {}
    for t in x.tuples:
        x_by_key.setdefault(t.key, []).append(t)
    y_by_key: dict[int, list[Tuple2]] = {}
    for t in y.tuples:
        y_by_key.setdefault(t.key, []).append(t)

    schemas: dict[int, X2YSchema] = {}
    plans: dict[int, Plan] = {}
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
        planned = planner.plan(spec, tracer=tracer)
        schema = planned.schema()
        plans[key] = planned
        schemas[key] = schema

    result = _skew_join_engine(
        x, y, q, heavy, schemas, config=config, tracer=tracer
    ).run()
    return SkewJoinRun(
        triples=tuple(result.outputs),
        metrics=result.metrics,
        engine=result.engine,
        heavy_keys=tuple(heavy),
        schemas=schemas,
        plans=plans,
    )
