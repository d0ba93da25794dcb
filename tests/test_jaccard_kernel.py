"""The token-bitset Jaccard kernel against the set-based reference.

The similarity-join and three-way reducers score documents from
:func:`token_bitsets`: one bit per token that at least two documents of
the job hold, plus each document's distinct-token count.  These tests pin
that the reducers emit exactly what a per-tuple loop calling
:func:`set_jaccard` (or :func:`triple_jaccard`) on every owned pair
(triple) emits: the same ids, the same float bits and the same order.
The generated corpora include empty documents (a union of 0 scores 1.0),
repeated tokens, tokens only one document holds, and vocabularies far
larger than the corpus.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.similarity_join import _broadcast_engine, similarity_reducer
from repro.apps.threeway_similarity import threeway_reducer, triple_jaccard
from repro.core.instance import A2AInstance
from repro.core.multiway import MultiwayInstance, multiway_bin_combining
from repro.core.selector import solve_a2a
from repro.engine.config import ExecutionConfig
from repro.engine.engine import execute_schema
from repro.engine.routing import a2a_reducer_masks
from repro.workloads.documents import (
    Document,
    all_pairs_above,
    set_jaccard,
    token_bitsets,
)

#: Vocabularies from a handful of tokens (many shared, many repeats) to
#: far more tokens than any corpus here holds (almost none shared).
VOCABULARIES = [2, 6, 40, 10**9]


@st.composite
def corpora(draw, max_documents=10, max_tokens=8):
    """Documents over a drawn vocabulary; empty documents allowed."""
    vocabulary = draw(st.sampled_from(VOCABULARIES))
    token = st.integers(0, vocabulary - 1).map(lambda t: f"tok{t}")
    tokens = draw(
        st.lists(
            st.lists(token, max_size=max_tokens),
            min_size=2,
            max_size=max_documents,
        )
    )
    return [Document(doc_id, tuple(doc)) for doc_id, doc in enumerate(tokens)]


thresholds = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False)
)


def owns(key, *masks):
    """Reducer *key* owns a tuple when no earlier reducer holds all of it."""
    common = (1 << key) - 1
    for mask in masks:
        common &= mask
    return not common


def reference_pairs(key, values, *, masks, threshold):
    """Per-pair loop: :func:`set_jaccard` on every owned pair, in order."""
    held = sorted(values, key=itemgetter(0))
    for (i, a), (j, b) in combinations(held, 2):
        if owns(key, masks[i], masks[j]):
            similarity = set_jaccard(frozenset(a.tokens), frozenset(b.tokens))
            if similarity >= threshold:
                yield (a.doc_id, b.doc_id, similarity)


def reference_triples(key, values, *, masks, threshold):
    """Per-triple loop: :func:`triple_jaccard` on every owned triple."""
    held = sorted(values, key=itemgetter(0))
    for (i, a), (j, b), (k, c) in combinations(held, 3):
        if owns(key, masks[i], masks[j], masks[k]):
            similarity = triple_jaccard(a, b, c)
            if similarity >= threshold:
                yield (a.doc_id, b.doc_id, c.doc_id, similarity)


def exact(rows):
    """Rows with each float as its hex string, so equality is bitwise."""
    return [
        tuple(x.hex() if isinstance(x, float) else x for x in row) for row in rows
    ]


def reduce_all(schema, documents, reduce_fn):
    """Every reducer's outputs, in reducer order (the engine's order)."""
    outputs = []
    for key, members in enumerate(schema.reducers):
        outputs.extend(reduce_fn(key, [(i, documents[i]) for i in members]))
    return outputs


def sizes_of(documents):
    """Schema sizes: the engine ships an empty document at size 1."""
    return [max(1, doc.size) for doc in documents]


def a2a_schema(documents, method):
    sizes = sizes_of(documents)
    return solve_a2a(A2AInstance(sizes, 2 * max(sizes) + 3), method)


class TestTokenBitsets:
    def test_only_shared_tokens_get_bits_by_descending_frequency(self):
        documents = [
            Document(0, ("a", "b", "x", "b")),
            Document(1, ("b", "c", "a")),
            Document(2, ("c", "b", "y")),
            Document(3, ()),
        ]
        # b is held by 3 documents, a and c by 2 (a seen first), x and y
        # by one each.
        assert token_bitsets(documents) == [
            (0b011, 3),
            (0b111, 3),
            (0b101, 3),
            (0, 0),
        ]

    def test_width_follows_the_shared_vocabulary(self):
        documents = [
            Document(i, (f"own{i}", "shared", f"own{i}x")) for i in range(50)
        ]
        assert token_bitsets(documents) == [(1, 3)] * 50

    @settings(deadline=None, max_examples=200)
    @given(corpora())
    def test_counts_are_the_set_sizes(self, documents):
        bitsets = token_bitsets(documents)
        for (_, count), doc in zip(bitsets, documents):
            assert count == len(set(doc.tokens))
        for (a, (bits_a, _)), (b, (bits_b, _)) in combinations(
            zip(documents, bitsets), 2
        ):
            common = set(a.tokens) & set(b.tokens)
            assert (bits_a & bits_b).bit_count() == len(common)


class TestSimilarityKernel:
    @settings(deadline=None, max_examples=200)
    @given(
        corpora(),
        thresholds,
        st.sampled_from(["bin_pairing", "greedy", "auto"]),
    )
    def test_reducer_equals_the_set_jaccard_loop(
        self, documents, threshold, method
    ):
        schema = a2a_schema(documents, method)
        reference = partial(
            reference_pairs, masks=a2a_reducer_masks(schema), threshold=threshold
        )
        kernel = similarity_reducer(schema, documents, threshold)
        expected = reduce_all(schema, documents, reference)
        assert exact(reduce_all(schema, documents, kernel)) == exact(expected)
        # Every pair is owned once, so the rows are all_pairs_above's.
        assert {(a, b) for a, b, _ in expected} == all_pairs_above(
            documents, threshold
        )

    def test_empty_documents_score_one(self):
        documents = [Document(0, ()), Document(1, ()), Document(2, ("a",))]
        schema = a2a_schema(documents, "auto")
        kernel = similarity_reducer(schema, documents, 0.0)
        assert sorted(reduce_all(schema, documents, kernel)) == [
            (0, 1, 1.0),
            (0, 2, 0.0),
            (1, 2, 0.0),
        ]

    @settings(deadline=None, max_examples=100)
    @given(corpora(max_documents=12), thresholds)
    def test_broadcast_baseline_equals_the_set_jaccard_loop(
        self, documents, threshold
    ):
        run = _broadcast_engine(documents, 4, threshold).run()
        expected = [
            (a.doc_id, b.doc_id, set_jaccard(frozenset(a.tokens), frozenset(b.tokens)))
            for a, b in combinations(documents, 2)
        ]
        assert exact(run.outputs) == exact(
            [row for row in expected if row[2] >= threshold]
        )


class TestThreeWayKernel:
    @settings(deadline=None, max_examples=150)
    @given(corpora(max_documents=8, max_tokens=6), thresholds)
    def test_reducer_equals_the_triple_jaccard_loop(self, documents, threshold):
        sizes = sizes_of(documents)
        if len(documents) < 3:
            documents = documents + [Document(len(documents), ())]
            sizes.append(1)
        schema = multiway_bin_combining(
            MultiwayInstance(sizes, 3 * max(sizes) + 2, 3)
        )
        reference = partial(
            reference_triples, masks=a2a_reducer_masks(schema), threshold=threshold
        )
        kernel = threeway_reducer(schema, documents, threshold)
        assert exact(reduce_all(schema, documents, kernel)) == exact(
            reduce_all(schema, documents, reference)
        )


#: A corpus with empty documents, repeats and a vocabulary far larger
#: than the corpus, for the engine runs below.
CORPUS = [
    Document(
        i,
        tuple(f"tok{(i * j) % 11}" for j in range(i % 6))
        + tuple(f"rare{i}-{j}" for j in range(i % 3)),
    )
    for i in range(16)
]

PROCESSES = ExecutionConfig(backend="processes", num_workers=2, num_reduce_tasks=3)


@pytest.mark.parametrize("threshold", [0.0, 0.25, 1.0])
def test_similarity_bitsets_pickle_into_process_tasks(threshold):
    schema = a2a_schema(CORPUS, "bin_pairing")
    reference = execute_schema(
        schema,
        CORPUS,
        partial(
            reference_pairs, masks=a2a_reducer_masks(schema), threshold=threshold
        ),
    )
    run = execute_schema(
        schema, CORPUS, similarity_reducer(schema, CORPUS, threshold), config=PROCESSES
    )
    assert run.engine.backend == "processes"
    assert exact(run.outputs) == exact(reference.outputs)
    assert run.metrics == reference.metrics


def test_threeway_bitsets_pickle_into_process_tasks():
    sizes = sizes_of(CORPUS)
    schema = multiway_bin_combining(MultiwayInstance(sizes, 3 * max(sizes), 3))
    reference = execute_schema(
        schema,
        CORPUS,
        partial(reference_triples, masks=a2a_reducer_masks(schema), threshold=0.0),
    )
    run = execute_schema(
        schema, CORPUS, threeway_reducer(schema, CORPUS, 0.0), config=PROCESSES
    )
    assert run.engine.backend == "processes"
    assert exact(run.outputs) == exact(reference.outputs)
