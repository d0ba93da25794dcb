"""Three-way similarity on the MapReduce engine (multiway extension).

Exercises the r > 2 generalization end to end: for every *triple* of
documents, compute the Jaccard similarity of the triple's token sets
(|A ∩ B ∩ C| / |A ∪ B ∪ C|) and report the triples above a threshold.
The mapping schema must bring every triple together at some reducer —
the :mod:`repro.core.multiway` bin-combining scheme provides exactly that.
The planner picks the schema and :func:`repro.planner.run` executes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from operator import itemgetter
from typing import Iterator, Sequence

from repro import planner
from repro.core.multiway import MultiwaySchema
from repro.engine.config import ExecutionConfig
from repro.engine.metrics import EngineMetrics, JobMetrics
from repro.engine.routing import a2a_reducer_masks, owned_partners
from repro.planner import JobSpec, Plan
from repro.workloads.documents import Document, token_bitsets


def triple_jaccard(a: Document, b: Document, c: Document) -> float:
    """Jaccard similarity of three token sets: |∩| / |∪|; 1.0 when all
    are empty.

    The reference: :func:`all_triples_above` calls it, and the job's
    reducer computes the same two integers from token bitsets instead.
    """
    sets = [set(a.tokens), set(b.tokens), set(c.tokens)]
    union = sets[0] | sets[1] | sets[2]
    if not union:
        return 1.0
    return len(sets[0] & sets[1] & sets[2]) / len(union)


def all_triples_above(documents: list[Document], threshold: float) -> set[tuple[int, int, int]]:
    """Ground truth: brute-force over all C(m, 3) triples."""
    results = set()
    for i, j, k in combinations(range(len(documents)), 3):
        if triple_jaccard(documents[i], documents[j], documents[k]) >= threshold:
            results.add(
                (documents[i].doc_id, documents[j].doc_id, documents[k].doc_id)
            )
    return results


@dataclass(frozen=True)
class ThreeWayRun:
    """Result of a distributed three-way similarity computation.

    Attributes:
        triples: ``(doc_id_a, doc_id_b, doc_id_c, similarity)`` for every
            triple at or above the threshold, each emitted exactly once.
        schema: the multiway mapping schema used.
        metrics: analytical job metrics of the run.
        engine: physical execution metrics of the run.
        plan: the planner's full decision record for this run.
    """

    triples: tuple[tuple[int, int, int, float], ...]
    schema: MultiwaySchema
    metrics: JobMetrics
    engine: EngineMetrics
    plan: Plan

    def triple_set(self) -> set[tuple[int, int, int]]:
        """Just the id triples, for ground-truth comparison."""
        return {(a, b, c) for a, b, c, _ in self.triples}


def threeway_spec(
    documents: list[Document],
    q: int,
    *,
    objective: str = "min-reducers",
) -> JobSpec:
    """Three-way similarity as a declarative multiway (r=3) spec."""
    return JobSpec.multiway(documents, q, 3, objective=objective)


def _threeway_reduce(
    key: int,
    values: list[tuple[int, Document]],
    *,
    masks: tuple[int, ...],
    bitsets: tuple[tuple[int, int], ...],
    threshold: float,
) -> Iterator[tuple[int, int, int, float]]:
    """Reducer: score the triples this reducer owns, in input order.

    Values arrive as ``(input_index, document)``; *masks* are the schema's
    per-input reducer bitmasks (:func:`a2a_reducer_masks`), and reducer
    *key* owns a triple when no earlier reducer holds all three inputs.
    :func:`owned_partners` decides that once per triple of groups of
    documents with equal masks, so only owned triples are scored.
    *bitsets* holds each document's ``(bits, distinct_count)`` by input
    index (:func:`~repro.workloads.documents.token_bitsets`, built once
    per job): a triple's common tokens are the bit count of the AND of
    its bits, and its union the bit count of the OR plus each document's
    private tokens, the integers :func:`triple_jaccard` divides, so the
    floats are the same.  Module-level (with data bound through
    :func:`functools.partial`, see :func:`threeway_reducer`) so the
    ``processes`` backend can pickle it.
    """
    held = []
    for i, doc in sorted(values, key=itemgetter(0)):
        bits, count = bitsets[i]
        held.append((masks[i], (doc.doc_id, bits, count - bits.bit_count())))
    for (id_a, bits_a, own_a), (id_b, bits_b, own_b), partners in owned_partners(
        key, held, width=3
    ):
        both = bits_a & bits_b
        either = bits_a | bits_b
        own = own_a + own_b
        for id_c, bits_c, own_c in partners:
            common = (both & bits_c).bit_count()
            union = (either | bits_c).bit_count() + own + own_c
            similarity = common / union if union else 1.0
            if similarity >= threshold:
                yield (id_a, id_b, id_c, similarity)


def threeway_reducer(
    schema: MultiwaySchema, documents: Sequence[Document], threshold: float
) -> partial[Iterator[tuple[int, int, int, float]]]:
    """The three-way job's reduce function for *schema* over *documents*.

    Binds the schema's reducer masks and the documents' token bitsets,
    each built once here for the whole job.
    """
    return partial(
        _threeway_reduce,
        masks=a2a_reducer_masks(schema),
        bitsets=tuple(token_bitsets(documents)),
        threshold=threshold,
    )


def run_threeway_similarity(
    documents: list[Document],
    q: int,
    threshold: float,
) -> ThreeWayRun:
    """Run the schema-driven three-way similarity job end to end.

    Documents are indexed by list position.  Each reducer evaluates only
    the triples it owns (the smallest reducer index holding all three
    documents), so every triple is emitted exactly once despite
    replication.  The job runs on the serial engine through
    :func:`repro.planner.run`, which routes the multiway schema like an
    A2A one.
    """
    planned = planner.plan(threeway_spec(documents, q))
    schema = planned.schema()
    result = planner.run(
        planned,
        documents,
        threeway_reducer(schema, documents, threshold),
        config=ExecutionConfig(),
    )
    return ThreeWayRun(
        triples=tuple(result.outputs),
        schema=schema,
        metrics=result.metrics,
        engine=result.engine,
        plan=planned,
    )
