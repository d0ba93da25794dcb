"""Synthetic document corpora for the similarity-join application.

The paper motivates A2A with similarity join over web pages: every pair of
documents must be compared because the similarity function admits no
shortcut.  Real web pages only matter through their *sizes* (the mapping
schema) and token multisets (the reduce-side function), so the substitute
is a token-document generator with a configurable size distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import AbstractSet, Iterator

import numpy as np

from repro.dataset import Dataset
from repro.exceptions import InvalidInstanceError
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.distributions import sample_sizes


@dataclass(frozen=True)
class Document:
    """A document: an id plus a token tuple; its *size* is the token count.

    Token count doubling as assignment size keeps the simulator's byte
    accounting and the mapping-schema sizes consistent by construction.
    """

    doc_id: int
    tokens: tuple[str, ...]

    @property
    def size(self) -> int:
        """Assignment size of the document (number of tokens)."""
        return len(self.tokens)


def set_jaccard(a: AbstractSet[str], b: AbstractSet[str]) -> float:
    """Jaccard similarity of two token sets; 1.0 when both are empty.

    The union size comes by inclusion–exclusion, ``|a| + |b| - |a & b|``,
    so no union set is built.  It is the same integer as ``len(a | b)``,
    hence the same float.  Reducers that compare a document against many
    others build its set once and call this directly.
    """
    common = len(a & b)
    union = len(a) + len(b) - common
    if not union:
        return 1.0
    return common / union


def jaccard(a: Document, b: Document) -> float:
    """Jaccard similarity of two documents' token sets.

    Deliberately has no locality-sensitive shortcut here — the all-pairs
    requirement is the premise of the A2A problem.
    """
    return set_jaccard(frozenset(a.tokens), frozenset(b.tokens))


def generate_documents(
    m: int,
    q: int,
    *,
    profile: str = "zipf",
    vocabulary_size: int = 500,
    seed: SeedLike = None,
) -> list[Document]:
    """Generate *m* documents whose sizes follow a named profile.

    Sizes are drawn from :func:`repro.workloads.distributions.sample_sizes`
    relative to the reducer capacity *q*, then each document is filled with
    that many tokens from a ``vocabulary_size``-word vocabulary.  A shared
    seed makes corpus and sizes reproducible together.
    """
    if vocabulary_size <= 0:
        raise InvalidInstanceError(
            f"vocabulary_size must be positive, got {vocabulary_size}"
        )
    rng = make_rng(seed)
    sizes = sample_sizes(profile, m, q, seed=rng)
    vocabulary = [f"tok{v}" for v in range(vocabulary_size)]
    documents = []
    for doc_id, size in enumerate(sizes):
        token_ids = rng.integers(0, vocabulary_size, size=size)
        documents.append(
            Document(doc_id=doc_id, tokens=tuple(vocabulary[t] for t in token_ids))
        )
    return documents


def _iter_documents(
    m: int,
    q: int,
    profile: str,
    vocabulary_size: int,
    seed: int,
) -> Iterator[Document]:
    """Yield the corpus of :func:`generate_documents` one document at a time.

    Sizes are sampled up front (they are ``m`` small integers — the part
    that must be known for schema planning anyway); the token payloads,
    which dominate memory, are produced lazily.
    """
    rng = make_rng(seed)
    sizes = sample_sizes(profile, m, q, seed=rng)
    vocabulary = [f"tok{v}" for v in range(vocabulary_size)]
    for doc_id, size in enumerate(sizes):
        token_ids = rng.integers(0, vocabulary_size, size=size)
        yield Document(
            doc_id=doc_id, tokens=tuple(vocabulary[t] for t in token_ids)
        )


def document_dataset(
    m: int,
    q: int,
    *,
    profile: str = "zipf",
    vocabulary_size: int = 500,
    seed: SeedLike = None,
) -> Dataset:
    """The corpus of :func:`generate_documents` as a streaming dataset.

    Every iteration replays the same seeded generator, so the dataset is
    re-iterable and deterministic (an unseeded call draws one concrete
    seed at construction time and pins it), while the token payloads are
    produced on demand instead of being held all at once.
    """
    if vocabulary_size <= 0:
        raise InvalidInstanceError(
            f"vocabulary_size must be positive, got {vocabulary_size}"
        )
    if not isinstance(seed, int):
        # Pin one concrete seed so re-iteration replays the same corpus.
        seed = int(make_rng(seed).integers(0, np.iinfo(np.int64).max))
    return Dataset.from_factory(
        partial(_iter_documents, m, q, profile, vocabulary_size, seed),
        length=m,
    )


def all_pairs_above(
    documents: list[Document], threshold: float
) -> set[tuple[int, int]]:
    """Ground-truth similarity join: brute force over all pairs.

    Used by tests and E7 to check the MapReduce pipeline emits exactly the
    right pair set.
    """
    results: set[tuple[int, int]] = set()
    token_sets = [frozenset(d.tokens) for d in documents]
    for i, set_a in enumerate(token_sets):
        for j in range(i + 1, len(documents)):
            if set_jaccard(set_a, token_sets[j]) >= threshold:
                results.add((documents[i].doc_id, documents[j].doc_id))
    return results
