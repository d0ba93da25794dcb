"""Similarity join on the simulated MapReduce cluster.

The paper's A2A motivating application: every pair of documents must be
compared (the similarity function admits no LSH shortcut).  The schema
decides which reducers each document travels to; each reducer compares the
pairs it canonically owns and emits those above the threshold.

The app is a thin spec builder over the planner pipeline:
:func:`similarity_spec` states the problem as a
:class:`~repro.planner.spec.JobSpec`, :func:`repro.planner.plan` picks the
schema (the structural fast path by default, full cost-based planning
with ``method="planned"``), and the engine path funnels through
:func:`repro.planner.run`.

Also provides the naive broadcast baseline (all documents to one reducer)
used by E7 to show what the schema machinery buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

from repro import planner
from repro.core.instance import A2AInstance
from repro.core.schema import A2ASchema
from repro.dataset import Dataset
from repro.engine.config import ExecutionConfig, resolve_execution
from repro.engine.metrics import EngineMetrics
from repro.engine.routing import a2a_reducer_masks, build_schema_plan
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.metrics import JobMetrics
from repro.obs.profiler import PhaseProfiler
from repro.obs.trace import Tracer
from repro.planner import JobSpec, Plan
from repro.workloads.documents import Document, set_jaccard


@dataclass(frozen=True)
class SimilarityJoinRun:
    """Result of a distributed similarity join.

    Attributes:
        pairs: ``(doc_id_a, doc_id_b, similarity)`` for every pair at or
            above the threshold, each emitted exactly once.
        schema: the mapping schema used.
        metrics: job metrics of the run (simulator and engine agree).
        engine: physical execution metrics when the run went through the
            engine (``backend=`` was given); ``None`` for simulator runs.
        plan: the planner's full decision record for this run.
    """

    pairs: tuple[tuple[int, int, float], ...]
    schema: A2ASchema
    metrics: JobMetrics
    engine: EngineMetrics | None = None
    plan: Plan | None = None

    def pair_set(self) -> set[tuple[int, int]]:
        """Just the id pairs, for comparison against ground truth."""
        return {(a, b) for a, b, _ in self.pairs}


def similarity_spec(
    documents: list[Document] | Dataset,
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
) -> JobSpec:
    """The similarity join as a declarative A2A spec.

    ``method="planned"`` asks the planner for full cost-based method
    choice under *objective*; any other value keeps the historical
    semantics (``"auto"`` fast path or a pinned method name).
    """
    return JobSpec.a2a(
        documents,
        q,
        method=None if method == "planned" else method,
        objective=objective,
    )


def _similarity_reduce(
    key: int,
    values: list[tuple[int, Document]],
    *,
    masks: tuple[int, ...],
    threshold: float,
) -> Iterator[tuple[int, int, float]]:
    """Reducer: compare the pairs this reducer owns, in input order.

    Values arrive as ``(input_index, document)``; *masks* are the schema's
    per-input reducer bitmasks (:func:`a2a_reducer_masks`), and reducer
    *key* owns a pair when no earlier reducer holds both inputs.  Each
    document's token set is built once per reducer, not once per compared
    pair.  Module-level (with data bound through
    :func:`functools.partial`) so the ``processes`` backend can pickle it.
    """
    low = (1 << key) - 1
    held = [
        (masks[i] & low, masks[i], doc.doc_id, frozenset(doc.tokens))
        for i, doc in sorted(values, key=lambda item: item[0])
    ]
    for a_pos, (earlier, _, id_a, set_a) in enumerate(held):
        for _, mask_b, id_b, set_b in held[a_pos + 1 :]:
            if earlier & mask_b:
                continue
            similarity = set_jaccard(set_a, set_b)
            if similarity >= threshold:
                yield (id_a, id_b, similarity)


def run_similarity_join(
    documents: list[Document] | Dataset,
    q: int,
    threshold: float,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
    backend: str | None = None,
    num_workers: int | None = None,
    config: ExecutionConfig | None = None,
    tracer: Tracer | None = None,
    profiler: PhaseProfiler | None = None,
) -> SimilarityJoinRun:
    """Run the schema-driven similarity join end to end.

    Documents are indexed by list position (their ``doc_id`` is reported in
    the output but positions drive the schema).  Capacity is enforced
    strictly: a correct schema never overflows, so an exception here means
    a bug, not a workload property.

    With neither ``backend=`` nor ``config=`` the job runs on the
    reference simulator; naming a backend (``"serial"``, ``"threads"``,
    ``"processes"``) or passing an
    :class:`~repro.engine.config.ExecutionConfig` (which may set a
    ``memory_budget`` for the out-of-core shuffle) routes it through
    :mod:`repro.engine` instead, which produces identical pairs and
    additionally reports phase timings in ``run.engine``.
    ``method="planned"`` enables full cost-based planning under
    *objective* and — when no execution knobs are given — runs on the
    plan's resolved :class:`~repro.engine.config.ExecutionConfig`.
    *documents* may be a :class:`~repro.dataset.Dataset` (materialized
    once for schema planning — the sizes must be known before any record
    is routed).  A *tracer* records ``plan``/``score:*`` spans and, on
    the engine path, the ``map``/``shuffle``/``reduce`` phase spans; a
    *profiler* attributes CPU/RSS and function time to those phases
    (engine path only).
    """
    if isinstance(documents, Dataset):
        documents = documents.materialize()
    spec = similarity_spec(documents, q, method=method, objective=objective)
    planned = planner.plan(spec, tracer=tracer)
    schema = planned.schema()
    masks = a2a_reducer_masks(schema)

    execution = resolve_execution(config, backend, num_workers)
    if execution is None and method == "planned":
        execution = planned.execution
    reduce_fn = partial(_similarity_reduce, masks=masks, threshold=threshold)
    if execution is not None:
        result = planner.run(
            planned,
            documents,
            reduce_fn,
            config=execution,
            tracer=tracer,
            profiler=profiler,
        )
        return SimilarityJoinRun(
            pairs=tuple(result.outputs),
            schema=schema,
            metrics=result.metrics,
            engine=result.engine,
            plan=planned,
        )

    map_fn, size_of, wrapped = build_schema_plan(schema, documents)
    job = MapReduceJob(
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        size_of=size_of,
        reducer_capacity=q,
        strict_capacity=True,
    )
    result = job.run(wrapped)
    return SimilarityJoinRun(
        pairs=tuple(result.outputs),
        schema=schema,
        metrics=result.metrics,
        plan=planned,
    )


def run_broadcast_baseline(
    documents: list[Document],
    q: int,
    threshold: float,
) -> SimilarityJoinRun:
    """Naive baseline: ship every document to a single reducer.

    Runs with non-strict capacity so the (expected) overflow is *measured*
    rather than fatal — E7 reports the violation count and max load.
    The schema recorded is the trivial one-reducer schema.
    """
    instance = A2AInstance([d.size for d in documents], max(q, instance_total(documents)))
    schema = A2ASchema.from_lists(
        instance, [list(range(len(documents)))], algorithm="broadcast"
    )

    def map_fn(doc: Document):
        yield 0, doc

    def reduce_fn(key, docs: list[Document]):
        token_sets = [frozenset(doc.tokens) for doc in docs]
        for a_idx, set_a in enumerate(token_sets):
            for b_idx in range(a_idx + 1, len(docs)):
                similarity = set_jaccard(set_a, token_sets[b_idx])
                if similarity >= threshold:
                    yield (docs[a_idx].doc_id, docs[b_idx].doc_id, similarity)

    job = MapReduceJob(
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        reducer_capacity=q,
        strict_capacity=False,
    )
    result = job.run(documents)
    return SimilarityJoinRun(
        pairs=tuple(result.outputs), schema=schema, metrics=result.metrics
    )


def instance_total(documents: list[Document]) -> int:
    """Total size of a document list (helper for the baseline's capacity)."""
    return sum(d.size for d in documents)
