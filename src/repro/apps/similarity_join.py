"""Similarity join on the MapReduce engine.

The paper's A2A motivating application: every pair of documents must be
compared (the similarity function admits no LSH shortcut).  The schema
decides which reducers each document travels to; each reducer compares the
pairs it canonically owns and emits those above the threshold.

The app is a thin spec builder over the planner pipeline:
:func:`similarity_spec` states the problem as a
:class:`~repro.planner.spec.JobSpec`, :func:`repro.planner.plan` picks the
schema (the structural fast path by default, full cost-based planning
with ``method="planned"``), and the job runs on the engine through
:func:`repro.planner.run`.

Also provides the naive broadcast baseline (all documents to one reducer)
used by E7 to show what the schema machinery buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro import planner
from repro.core.instance import A2AInstance
from repro.core.schema import A2ASchema
from repro.dataset import Dataset
from repro.engine.config import ExecutionConfig
from repro.engine.engine import ExecutionEngine
from repro.engine.metrics import EngineMetrics, JobMetrics
from repro.engine.routing import (
    SchemaPlan,
    a2a_reducer_masks,
    default_size,
    owned_partners,
)
from repro.obs.trace import Tracer
from repro.planner import JobSpec, Plan
from repro.workloads.documents import Document, token_bitsets


@dataclass(frozen=True)
class SimilarityJoinRun:
    """Result of a distributed similarity join.

    Attributes:
        pairs: ``(doc_id_a, doc_id_b, similarity)`` for every pair at or
            above the threshold, each emitted exactly once.
        schema: the mapping schema used.
        metrics: analytical job metrics of the run.
        engine: physical execution metrics of the run.
        plan: the planner's full decision record (``None`` for the
            broadcast baseline, which is not planned).
    """

    pairs: tuple[tuple[int, int, float], ...]
    schema: A2ASchema
    metrics: JobMetrics
    engine: EngineMetrics
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


#: A document as the reduce scores it: ``(doc_id, bits, distinct_count)``
#: with ``bits`` and ``distinct_count`` from
#: :func:`~repro.workloads.documents.token_bitsets`.
_Scored = tuple[int, int, int]


def _score_pairs(
    groups: Iterable[tuple[_Scored, Sequence[_Scored]]], threshold: float
) -> Iterator[tuple[int, int, float]]:
    """Emit ``(id_a, id_b, similarity)`` for each document of *groups* and
    each of its partners at or above *threshold*, in order.

    A pair's common tokens are the bit count of the AND of its bits and
    its union the two distinct counts less that: the integers
    :func:`~repro.workloads.documents.set_jaccard` divides, so the floats
    are the same.
    """
    for (id_a, bits_a, count_a), partners in groups:
        for id_b, bits_b, count_b in partners:
            common = (bits_a & bits_b).bit_count()
            union = count_a + count_b - common
            similarity = common / union if union else 1.0
            if similarity >= threshold:
                yield (id_a, id_b, similarity)


def _similarity_reduce(
    key: int,
    values: list[tuple[int, Document]],
    *,
    masks: tuple[int, ...],
    bitsets: tuple[tuple[int, int], ...],
    threshold: float,
) -> Iterator[tuple[int, int, float]]:
    """Reducer: compare the pairs this reducer owns, in input order.

    Values arrive as ``(input_index, document)``; *masks* are the schema's
    per-input reducer bitmasks (:func:`a2a_reducer_masks`), and reducer
    *key* owns a pair when no earlier reducer holds both inputs.
    :func:`owned_partners` decides that once per group of documents with
    equal masks (a bin of the schema), so only owned pairs are compared.
    *bitsets* holds each document's ``(bits, distinct_count)`` by input
    index, built once per job by
    :func:`~repro.workloads.documents.token_bitsets`; each owned pair
    costs one AND and one bit count (:func:`_score_pairs`).
    Module-level (with data bound through :func:`functools.partial`, see
    :func:`similarity_reducer`) so the ``processes`` backend can pickle it.
    """
    held = [
        (masks[i], (doc.doc_id, *bitsets[i]))
        for i, doc in sorted(values, key=itemgetter(0))
    ]
    return _score_pairs(owned_partners(key, held), threshold)


def similarity_reducer(
    schema: A2ASchema, documents: Sequence[Document], threshold: float
) -> partial[Iterator[tuple[int, int, float]]]:
    """The similarity join's reduce function for *schema* over *documents*.

    Binds the schema's reducer masks and the documents' token bitsets,
    each built once here for the whole job.
    """
    return partial(
        _similarity_reduce,
        masks=a2a_reducer_masks(schema),
        bitsets=tuple(token_bitsets(documents)),
        threshold=threshold,
    )


def run_similarity_join(
    documents: list[Document] | Dataset,
    q: int,
    threshold: float,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
    config: ExecutionConfig | None = None,
    tracer: Tracer | None = None,
) -> SimilarityJoinRun:
    """Run the schema-driven similarity join end to end.

    Documents are indexed by list position (their ``doc_id`` is reported in
    the output but positions drive the schema).  Capacity is enforced
    strictly: a correct schema never overflows, so an exception here means
    a bug, not a workload property.

    The job runs on the engine through :func:`repro.planner.run`, on
    *config* when given (which may set a backend, or a ``memory_budget``
    for the out-of-core shuffle) and on the serial backend otherwise.
    ``method="planned"`` enables full cost-based planning under
    *objective* and — when no *config* is given — runs on the plan's
    resolved :class:`~repro.engine.config.ExecutionConfig`.
    *documents* may be a :class:`~repro.dataset.Dataset` (materialized
    once for schema planning — the sizes must be known before any record
    is routed).  A *tracer* records ``plan``/``score:*`` spans and the
    engine's ``map``/``shuffle``/``reduce`` phase spans; a profiling
    tracer (``Tracer(profile=True)``) also attributes CPU/RSS and
    function time to those phases.
    """
    if isinstance(documents, Dataset):
        documents = documents.materialize()
    spec = similarity_spec(documents, q, method=method, objective=objective)
    planned = planner.plan(spec, tracer=tracer)
    schema = planned.schema()

    if config is None and method != "planned":
        config = ExecutionConfig()
    result = planner.run(
        planned,
        documents,
        similarity_reducer(schema, documents, threshold),
        config=config,
        tracer=tracer,
    )
    return SimilarityJoinRun(
        pairs=tuple(result.outputs),
        schema=schema,
        metrics=result.metrics,
        engine=result.engine,
        plan=planned,
    )


def _broadcast_reduce(
    key: int, values: list[tuple[int, Document]], *, threshold: float
) -> Iterator[tuple[int, int, float]]:
    """Baseline reducer: compare every pair of documents it received.

    Values arrive as ``(input_index, document)``.  The one reducer holds
    the whole job, so it builds the job's token bitsets itself and scores
    pairs with :func:`_score_pairs`.  Module-level (threshold
    bound through :func:`functools.partial`) so the baseline runs on any
    backend.
    """
    scored = [
        (doc.doc_id, *bits)
        for (_, doc), bits in zip(values, token_bitsets([doc for _, doc in values]))
    ]
    return _score_pairs(
        ((doc, scored[a + 1 :]) for a, doc in enumerate(scored)), threshold
    )


def _broadcast_engine(
    documents: list[Document], q: int, threshold: float
) -> ExecutionEngine:
    """The broadcast baseline as a plan: one reducer holding every
    document, with non-strict capacity ``q``."""
    plan = SchemaPlan.from_members(
        documents,
        [default_size(doc) for doc in documents],
        [range(len(documents))],
        capacity=q,
    )
    return ExecutionEngine(
        plan=plan,
        reduce_fn=partial(_broadcast_reduce, threshold=threshold),
        strict_capacity=False,
    )


def run_broadcast_baseline(
    documents: list[Document],
    q: int,
    threshold: float,
) -> SimilarityJoinRun:
    """Naive baseline: ship every document to a single reducer.

    Runs on the serial engine with non-strict capacity so the (expected)
    overflow is *measured* rather than fatal — E7 reports the violation
    count and max load.  The schema recorded is the trivial one-reducer
    schema.
    """
    instance = A2AInstance([d.size for d in documents], max(q, instance_total(documents)))
    schema = A2ASchema.from_lists(
        instance, [list(range(len(documents)))], algorithm="broadcast"
    )
    result = _broadcast_engine(documents, q, threshold).run()
    return SimilarityJoinRun(
        pairs=tuple(result.outputs),
        schema=schema,
        metrics=result.metrics,
        engine=result.engine,
    )


def instance_total(documents: list[Document]) -> int:
    """Total size of a document list (helper for the baseline's capacity)."""
    return sum(d.size for d in documents)
