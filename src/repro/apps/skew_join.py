"""Skew join of X(A, B) and Y(B, C) on the simulated cluster.

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
from repro.engine.config import ExecutionConfig, resolve_execution
from repro.engine.engine import ExecutionEngine
from repro.engine.metrics import EngineMetrics
from repro.engine.routing import x2y_memberships, x2y_reducer_masks
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.metrics import JobMetrics
from repro.obs.profiler import PhaseProfiler
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
        metrics: job metrics (simulator and engine agree).
        heavy_keys: join keys handled by X2Y schemas (empty for the
            baseline).
        schemas: the per-heavy-key schemas, keyed by join key.
        engine: physical execution metrics when ``backend=`` routed the run
            through the engine; ``None`` for simulator runs.
        plans: the planner's per-heavy-key decision records, keyed by
            join key.
    """

    triples: tuple[tuple[int, int, int], ...]
    metrics: JobMetrics
    heavy_keys: tuple[int, ...] = ()
    schemas: dict[int, X2YSchema] | None = None
    engine: EngineMetrics | None = None
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


def hash_join(x: Relation, y: Relation, q: int) -> SkewJoinRun:
    """Conventional repartition join: one reducer per join key.

    Runs with non-strict capacity so heavy hitters *overflow measurably*
    instead of crashing — E6 reports exactly that overflow.
    """

    def map_fn(record: tuple[str, Tuple2]):
        side, t = record
        yield t.key, (side, t)

    def reduce_fn(key, values):
        x_tuples = [t for side, t in values if side == "x"]
        y_tuples = [t for side, t in values if side == "y"]
        for tx in x_tuples:
            for ty in y_tuples:
                yield (tx.payload, key, ty.payload)

    job = MapReduceJob(
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        size_of=lambda value: value[1].size,
        reducer_capacity=q,
        strict_capacity=False,
    )
    records = [("x", t) for t in x.tuples] + [("y", t) for t in y.tuples]
    result = job.run(records)
    return SkewJoinRun(triples=tuple(result.outputs), metrics=result.metrics)


#: Per-heavy-key routing plan: the two per-side membership tables (used by
#: the mapper to replicate tuples) plus the two per-side reducer bitmasks
#: of :func:`x2y_reducer_masks` (used by the reducer to keep the output
#: exactly-once: reducer ``r`` owns a pair no earlier reducer holds).
SkewPlan = tuple[
    tuple[tuple[int, ...], ...],
    tuple[tuple[int, ...], ...],
    tuple[tuple[int, ...], tuple[int, ...]],
]


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
    backend: str | None = None,
    num_workers: int | None = None,
    config: ExecutionConfig | None = None,
    tracer: Tracer | None = None,
    profiler: PhaseProfiler | None = None,
) -> SkewJoinRun:
    """Skew-aware join: X2Y mapping schemas for heavy keys, hashing for light.

    A key is *heavy* when its combined tuple load exceeds ``q``.  For each
    heavy key the tuples of X and Y (with their individual sizes —
    different-sized inputs, per the paper) form an :class:`X2YInstance`
    solved by *method*; its reducers get composite ids ``("hh", key, r)``.
    Light keys keep the conventional per-key reducer ``("light", key)``.
    Capacity is enforced strictly: by construction nothing overflows.

    With neither ``backend=`` nor ``config=`` the job runs on the
    reference simulator; naming a backend (``"serial"``, ``"threads"``,
    ``"processes"``) or passing an
    :class:`~repro.engine.config.ExecutionConfig` (which may set a
    ``memory_budget`` for the out-of-core shuffle) runs the same
    map/reduce functions through :mod:`repro.engine`, producing identical
    triples plus phase timings in ``run.engine``.  ``method="planned"``
    plans every heavy key's schema cost-based under *objective* and —
    when no execution knobs are given — resolves the engine configuration
    from the environment probe.  A *tracer* records one ``plan`` span per
    heavy key plus the engine phase spans on engine-backed runs; a
    *profiler* attributes CPU/RSS and function time to those phases
    (engine path only).
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
        x_members, y_members = x2y_memberships(schema)
        members[key] = (
            tuple(tuple(m) for m in x_members),
            tuple(tuple(m) for m in y_members),
            x2y_reducer_masks(schema),
        )

    positions_x = {key: {id(t): i for i, t in enumerate(ts)} for key, ts in x_by_key.items()}
    positions_y = {key: {id(t): j for j, t in enumerate(ts)} for key, ts in y_by_key.items()}
    records: list[SkewRecord] = [
        ("x", positions_x[t.key][id(t)], t.key, t.payload, t.size) for t in x.tuples
    ] + [
        ("y", positions_y[t.key][id(t)], t.key, t.payload, t.size) for t in y.tuples
    ]

    map_fn = partial(_skew_map, members=members, heavy=heavy_set)
    reduce_fn = partial(_skew_reduce, members=members)

    execution = resolve_execution(config, backend, num_workers)
    if execution is None and method == "planned":
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
        execution = planner.resolve_execution_config(
            env,
            num_reducers=max(1, total_reducers),
            communication_cost=light_comm
            + sum(s.communication_cost for s in schemas.values()),
        )
    if execution is not None:
        engine = ExecutionEngine.from_config(
            execution,
            map_fn=map_fn,
            reduce_fn=reduce_fn,
            size_of=_skew_record_size,
            reducer_capacity=q,
            strict_capacity=True,
            tracer=tracer,
            profiler=profiler,
        )
        result = engine.run(records)
        return SkewJoinRun(
            triples=tuple(result.outputs),
            metrics=result.metrics,
            heavy_keys=tuple(heavy),
            schemas=schemas,
            engine=result.engine,
            plans=plans,
        )

    job = MapReduceJob(
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        size_of=_skew_record_size,
        reducer_capacity=q,
        strict_capacity=True,
    )
    result = job.run(records)
    return SkewJoinRun(
        triples=tuple(result.outputs),
        metrics=result.metrics,
        heavy_keys=tuple(heavy),
        schemas=schemas,
        plans=plans,
    )
