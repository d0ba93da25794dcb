"""Unit tests for the workload generators."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidInstanceError
from repro.utils.rng import make_rng
from repro.workloads.distributions import (
    SIZE_PROFILES,
    bimodal_sizes,
    constant_sizes,
    normal_sizes,
    sample_sizes,
    uniform_sizes,
    zipf_sizes,
)
from repro.workloads.documents import (
    all_pairs_above,
    Document,
    generate_documents,
    jaccard,
    set_jaccard,
)
from repro.workloads.relations import (
    generate_join_workload,
    generate_skewed_relation,
    heavy_hitters,
    zipf_key_sequence,
)
from repro.workloads.vectors import dense_outer_product, generate_block_vector


class TestDistributions:
    def test_constant(self):
        assert constant_sizes(3, 5) == [5, 5, 5]

    def test_uniform_in_range(self):
        sizes = uniform_sizes(200, 3, 9, seed=0)
        assert all(3 <= s <= 9 for s in sizes)
        assert len(sizes) == 200

    def test_uniform_reproducible(self):
        assert uniform_sizes(20, 1, 10, seed=5) == uniform_sizes(20, 1, 10, seed=5)

    def test_zipf_clipped_and_positive(self):
        sizes = zipf_sizes(500, alpha=1.3, max_size=50, seed=1)
        assert all(1 <= s <= 50 for s in sizes)

    def test_zipf_is_heavy_tailed(self):
        sizes = zipf_sizes(2000, alpha=1.3, max_size=10**6, seed=2)
        # Substantial mass at 1-2 (about 36% for alpha=1.3), yet some very
        # large draws exist: the heavy-tail signature.
        assert sum(1 for s in sizes if s <= 2) > len(sizes) / 4
        assert max(sizes) > 100

    def test_zipf_rejects_alpha_at_most_one(self):
        with pytest.raises(InvalidInstanceError):
            zipf_sizes(10, alpha=1.0)

    def test_normal_clipped_at_one(self):
        sizes = normal_sizes(500, mean=2, stdev=5, seed=3)
        assert all(s >= 1 for s in sizes)

    def test_bimodal_has_two_modes(self):
        sizes = bimodal_sizes(
            1000, small_mean=10, big_mean=200, big_fraction=0.2, seed=4
        )
        big = [s for s in sizes if s > 100]
        assert 100 < len(big) < 300  # ~20%

    def test_bimodal_fraction_bounds(self):
        with pytest.raises(InvalidInstanceError):
            bimodal_sizes(10, big_fraction=1.5)

    def test_sample_sizes_all_profiles(self):
        for profile in SIZE_PROFILES:
            sizes = sample_sizes(profile, 50, q=100, seed=0)
            assert len(sizes) == 50
            assert all(1 <= s <= 100 for s in sizes)

    def test_sample_sizes_unknown_profile(self):
        with pytest.raises(InvalidInstanceError, match="unknown size profile"):
            sample_sizes("cauchy", 10, 100)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(InvalidInstanceError):
            uniform_sizes(0)
        with pytest.raises(InvalidInstanceError):
            constant_sizes(-1)


class TestDocuments:
    def test_generation_shape(self):
        docs = generate_documents(10, 60, seed=0)
        assert len(docs) == 10
        assert all(d.size == len(d.tokens) for d in docs)
        assert [d.doc_id for d in docs] == list(range(10))

    def test_reproducible(self):
        a = generate_documents(5, 40, seed=9)
        b = generate_documents(5, 40, seed=9)
        assert [d.tokens for d in a] == [d.tokens for d in b]

    def test_jaccard_identical(self):
        docs = generate_documents(2, 40, seed=0)
        assert jaccard(docs[0], docs[0]) == 1.0

    def test_jaccard_disjoint(self):
        a = Document(0, ("x",))
        b = Document(1, ("y",))
        assert jaccard(a, b) == 0.0

    def test_jaccard_symmetric(self):
        docs = generate_documents(2, 40, seed=1)
        assert jaccard(docs[0], docs[1]) == jaccard(docs[1], docs[0])

    def test_jaccard_matches_the_union_set_formula_bit_for_bit(self):
        docs = generate_documents(40, 60, seed=3, vocabulary_size=80)
        for a in docs:
            for b in docs:
                set_a, set_b = set(a.tokens), set(b.tokens)
                expected = len(set_a & set_b) / len(set_a | set_b)
                assert jaccard(a, b) == expected
                assert set_jaccard(frozenset(a.tokens), frozenset(b.tokens)) == expected

    def test_jaccard_of_two_empty_documents_is_one(self):
        assert jaccard(Document(0, ()), Document(1, ())) == 1.0
        assert set_jaccard(frozenset(), frozenset()) == 1.0

    def test_all_pairs_above_threshold_zero_is_all_pairs(self):
        docs = generate_documents(6, 40, seed=2)
        assert len(all_pairs_above(docs, 0.0)) == 15

    def test_all_pairs_above_high_threshold_empty_or_few(self):
        docs = generate_documents(6, 40, seed=2, vocabulary_size=10_000)
        assert len(all_pairs_above(docs, 0.99)) == 0


class TestRelations:
    def test_zipf_keys_in_range(self):
        keys = zipf_key_sequence(100, 10, 1.0, make_rng(0))
        assert all(0 <= k < 10 for k in keys)

    def test_zero_skew_roughly_uniform(self):
        keys = zipf_key_sequence(10_000, 10, 0.0, make_rng(1))
        counts = [keys.count(k) for k in range(10)]
        assert max(counts) < 2 * min(counts)

    def test_high_skew_concentrates_on_key_zero(self):
        keys = zipf_key_sequence(10_000, 10, 2.0, make_rng(2))
        assert keys.count(0) > len(keys) / 2

    def test_relation_generation(self):
        rel = generate_skewed_relation("X", 50, 5, 1.0, seed=3)
        assert len(rel) == 50
        assert all(t.size == 1 for t in rel.tuples)

    def test_size_jitter(self):
        rel = generate_skewed_relation(
            "X", 200, 5, 0.0, tuple_size=2, size_jitter=3, seed=4
        )
        assert all(2 <= t.size <= 5 for t in rel.tuples)

    def test_key_loads_match_counts_for_unit_sizes(self):
        rel = generate_skewed_relation("X", 100, 5, 1.0, seed=5)
        assert rel.key_loads() == dict(rel.key_counts())

    def test_join_workload_shared_key_space(self):
        x, y = generate_join_workload(100, 100, 8, 1.0, seed=6)
        assert len(x) == 100 and len(y) == 100
        assert {t.key for t in x.tuples} <= set(range(8))

    def test_heavy_hitters_detection(self):
        x, y = generate_join_workload(500, 500, 5, 1.5, seed=7)
        heavy = heavy_hitters(x, y, q=50)
        assert 0 in heavy  # key 0 dominates under skew 1.5
        loads_x, loads_y = x.key_loads(), y.key_loads()
        for k in heavy:
            assert loads_x.get(k, 0) + loads_y.get(k, 0) > 50

    def test_heavy_hitters_empty_when_capacity_large(self):
        x, y = generate_join_workload(50, 50, 5, 0.5, seed=8)
        assert heavy_hitters(x, y, q=10_000) == []

    def test_tuples_for(self):
        rel = generate_skewed_relation("X", 30, 3, 0.0, seed=9)
        for key in range(3):
            assert all(t.key == key for t in rel.tuples_for(key))


class TestVectors:
    def test_generation_shape(self):
        vec = generate_block_vector("u", 5, 40, seed=0)
        assert len(vec.blocks) == 5
        assert vec.dimension == sum(b.size for b in vec.blocks)

    def test_offsets_contiguous(self):
        vec = generate_block_vector("u", 4, 40, seed=1)
        expected = 0
        for block in vec.blocks:
            assert block.offset == expected
            expected += block.size

    def test_dense_roundtrip(self):
        vec = generate_block_vector("u", 3, 40, seed=2)
        dense = vec.dense()
        assert len(dense) == vec.dimension
        assert dense[vec.blocks[1].offset] == vec.blocks[1].values[0]

    def test_dense_outer_product_shape(self):
        u = generate_block_vector("u", 2, 20, seed=3)
        v = generate_block_vector("v", 3, 20, seed=4)
        matrix = dense_outer_product(u, v)
        assert len(matrix) == u.dimension
        assert len(matrix[0]) == v.dimension

    def test_outer_product_values(self):
        u = generate_block_vector("u", 2, 20, seed=5)
        v = generate_block_vector("v", 2, 20, seed=6)
        matrix = dense_outer_product(u, v)
        du, dv = u.dense(), v.dense()
        assert matrix[1][2] == pytest.approx(du[1] * dv[2])
