"""Per-layer numbers from one traced repeat.

A span's self time is its duration minus the part of that interval its
child spans cover.  The benchmark wraps each operation in a span of its
own (``job`` around a public call, ``session`` around a service
session); every span the library records without a parent inside the
repeat counts as that span's child, so the benchmark span's self time is
the time no layer accounts for — in the apps, the work they do between
calls into the planner and the engine.

Layers are named after the library's modules: ``planner`` (``plan``
spans), ``core`` (``score:<method>`` spans, one per solver run),
``engine`` (phase, task and ``spill`` spans) and ``service``.  Per-layer
times that exist on every workload are reported in normalized seconds
per operation; those that exist only on some are reported as a share of
the operations' time, so a workload without the layer reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from bench.harness import Repeat, p95
from bench.workloads import lower_bounds, pair_counts


def layer_of(span: Any) -> str:
    """The module a span's time belongs to."""
    if span.category == "bench":
        return "apps"
    if span.name.startswith("score:"):
        return "core"
    if span.category == "task":
        return "engine"
    return span.category or "other"


def span_key(span: Any) -> str:
    """``layer/name`` with every solver's ``score:*`` span folded together."""
    name = "score" if span.name.startswith("score:") else span.name
    return f"{layer_of(span)}/{name}"


def covered(span: Any, children: list[Any]) -> float:
    """Length of the union of *children* clipped to *span*'s interval."""
    start, end = span.start, span.start + span.duration
    total, reach = 0.0, start
    intervals = sorted(
        (max(c.start, start), min(c.start + c.duration, end)) for c in children
    )
    for lo, hi in intervals:
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans: list[Any]) -> list[tuple[Any, float]]:
    """``(span, self seconds)`` for every span with a duration."""
    ids = {s.span_id for s in spans}
    root = next(s for s in spans if s.category == "bench")
    children: dict[str, list[Any]] = defaultdict(list)
    for s in spans:
        if s is not root and s.duration:
            parent = s.parent_id if s.parent_id in ids else root.span_id
            children[parent].append(s)
    return [
        (s, s.duration - covered(s, children[s.span_id]))
        for s in spans
        if s.duration
    ]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    workload: Any, repeat: Repeat, wall: float, factor: float
) -> dict[str, dict[str, float]]:
    """Per-layer metrics of one traced repeat, and self time per span kind.

    *factor* normalizes seconds (see :mod:`bench.harness`); shares and
    counts need no normalizing.  Counts are per operation.
    """
    timed = self_times(repeat.spans)
    ops = len(repeat.results)
    op_time = sum(repeat.latencies) if repeat.latencies else wall
    self_by: dict[str, float] = defaultdict(float)
    duration_by: dict[str, float] = defaultdict(float)
    for span, own in timed:
        self_by[span_key(span)] += own
        duration_by[span_key(span)] += span.duration
    self_s, duration = dict(self_by), dict(duration_by)

    done = [r for r in repeat.results if not isinstance(r, Exception)]
    runs = [run for r in done for run in workload.engines(r)]
    schemas = [s for r in done for s in workload.schemas(r)]
    plans = [p for r in done for p in workload.plans(r)]
    plan_spans = [s for s, _ in timed if s.name == "plan"]

    workers = {trace: engine.num_workers for trace, _, engine in runs}
    default_workers = runs[0][2].num_workers if runs else 1
    capacity = sum(
        s.duration * workers.get(s.trace_id, default_workers)
        for s, _ in timed
        if span_key(s) in ("engine/map", "engine/reduce")
    )
    busy = duration.get("engine/map_task", 0.0) + duration.get(
        "engine/reduce_task", 0.0
    )

    required = held = reducers = reducers_lb = comm = comm_lb = 0
    for schema in schemas:
        need, have = pair_counts(schema)
        required += need
        held += have
        r_lb, c_lb = lower_bounds(schema)
        reducers += schema.num_reducers
        reducers_lb += r_lb
        comm += schema.communication_cost
        comm_lb += c_lb

    def candidates(status: str) -> float:
        return _mean(
            [sum(c.status == status for c in p.candidates) for p in plans]
        )

    def per_op_engine(field: str) -> float:
        """An ``EngineMetrics`` field, summed over runs, per operation."""
        return sum(getattr(engine, field) for _, _, engine in runs) / ops

    def per_op_job(field: str) -> float:
        """A ``JobMetrics`` field, summed over runs, per operation."""
        return sum(getattr(job, field) for _, job, _ in runs) / ops

    def skew(loads: tuple[int, ...]) -> float:
        return max(loads) / statistics.mean(loads) if loads else 0.0

    queue_p50 = queue_p95 = run_p50 = 0.0
    if repeat.statuses:
        queued = [s.queue_seconds for s in repeat.statuses]
        running = [s.wall_seconds for s in repeat.statuses]
        latency = repeat.latencies
        queue_p50 = statistics.median(queued) / statistics.median(latency)
        queue_p95 = p95(queued) / p95(latency)
        run_p50 = statistics.median(running) / statistics.median(latency)
    stats = workload.service_stats() or {"jobs": {}, "backend_pools": {}}

    metrics = {
        "apps.prep_s": sum(
            v for k, v in self_s.items() if k.startswith("apps/")
        ) * factor / ops,
        "apps.pair_check_ratio": required / held if held else 0.0,
        "planner.plan_share": self_s.get("planner/plan", 0.0) / op_time,
        "planner.plans_per_job": len(plan_spans) / ops,
        "planner.cache_hit_ratio": _mean(
            [1.0 if s.attrs.get("cache_hit") else 0.0 for s in plan_spans]
        ),
        "core.solve_share": self_s.get("core/score", 0.0) / op_time,
        "core.candidates_scored": candidates("scored"),
        "core.candidates_failed": candidates("failed"),
        "core.candidates_skipped": candidates("skipped"),
        "core.reducers_over_lb": reducers / reducers_lb,
        "core.comm_over_lb": comm / comm_lb,
        "engine.map_s": duration.get("engine/map", 0.0) * factor / ops,
        "engine.shuffle_s": duration.get("engine/shuffle", 0.0) * factor / ops,
        "engine.reduce_s": duration.get("engine/reduce", 0.0) * factor / ops,
        "engine.post_s": duration.get("engine/post", 0.0) * factor / ops,
        "engine.task_busy_ratio": busy / capacity if capacity else 0.0,
        "engine.reduce_task_skew": _mean(
            [skew(e.task_loads) for _, _, e in runs]
        ),
        "engine.map_tasks": per_op_engine("num_map_tasks"),
        "engine.reduce_tasks": per_op_engine("num_reduce_tasks"),
        "engine.pairs_shipped": per_op_job("map_output_pairs"),
        "engine.bytes_moved": per_op_engine("bytes_moved"),
        "engine.encoded_bytes": per_op_engine("encoded_bytes"),
        "engine.encode_share": sum(e.encode_seconds for _, _, e in runs)
        / op_time,
        "engine.decode_share": sum(e.decode_seconds for _, _, e in runs)
        / op_time,
        "engine.shm_segments": per_op_engine("shm_segments"),
        "engine.spill_runs": per_op_job("spill_runs"),
        "engine.spilled_bytes": per_op_job("spilled_bytes"),
        "engine.peak_buffered_pairs": _mean(
            [m.peak_buffered_pairs for _, m, _ in runs]
        ),
        "engine.spill_share": duration.get("engine/spill", 0.0) / op_time,
        "engine.output_records": per_op_job("output_records"),
        "engine.task_retries": per_op_engine("task_retries"),
        "engine.pool_rebuilds": per_op_engine("pool_rebuilds"),
        "service.queue_p50_share": queue_p50,
        "service.queue_p95_share": queue_p95,
        "service.run_p50_share": run_p50,
        "service.store_share": self_s.get("service/store", 0.0) / op_time,
        "service.pools_created": sum(stats["backend_pools"].values()),
        "service.jobs_failed": stats["jobs"].get("failed", 0),
        "service.jobs_rejected": stats["jobs"].get("rejected", 0),
        "obs.spans_per_job": len(repeat.spans) / ops,
    }
    per_op_self = {key: value * factor / ops for key, value in self_s.items()}
    per_op_self["total"] = op_time * factor / ops
    return {"metrics": metrics, "self_s": per_op_self}
