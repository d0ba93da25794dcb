"""Unit tests for mapping schemas and their verification."""

from __future__ import annotations

import pytest

from repro.core.instance import A2AInstance, X2YInstance
from repro.core.schema import A2ASchema, X2YSchema
from repro.exceptions import InvalidSchemaError


def make_valid_a2a_schema():
    instance = A2AInstance([3, 3, 3], 9)
    return A2ASchema.from_lists(instance, [[0, 1, 2]], algorithm="manual")


class TestA2ASchema:
    def test_valid_single_reducer(self):
        schema = make_valid_a2a_schema()
        report = schema.verify()
        assert report.valid
        assert report.num_reducers == 1

    def test_loads_and_costs(self):
        instance = A2AInstance([3, 5, 2], 10)
        schema = A2ASchema.from_lists(instance, [[0, 1], [0, 2], [1, 2]])
        assert schema.loads == (8, 5, 7)
        assert schema.communication_cost == 20
        assert schema.max_load == 8

    def test_replication_counts(self):
        instance = A2AInstance([1, 1, 1], 4)
        schema = A2ASchema.from_lists(instance, [[0, 1], [0, 2]])
        assert schema.replication == (2, 1, 1)

    def test_reducers_of(self):
        instance = A2AInstance([1, 1, 1], 4)
        schema = A2ASchema.from_lists(instance, [[0, 1], [0, 2], [1, 2]])
        assert schema.reducers_of(0) == (0, 1)

    def test_from_lists_dedupes_and_sorts(self):
        instance = A2AInstance([1, 1], 4)
        schema = A2ASchema.from_lists(instance, [[1, 0, 1]])
        assert schema.reducers == ((0, 1),)

    def test_from_lists_normalises_like_a_set_per_reducer(self):
        instance = A2AInstance([1] * 6, 6)
        raw = [[5, 0, 5, 3, 3, 3], (2, 1), [4], [], [0, 0], {3, 1}, (0, 1, 2, 3, 4, 5, 0)]
        schema = A2ASchema.from_lists(instance, raw)
        assert schema.reducers == tuple(tuple(sorted(set(r))) for r in raw)
        assert A2ASchema.from_lists(instance, [iter([2, 0, 2])]).reducers == ((0, 2),)

    def test_from_bins_equals_from_lists_over_disjoint_bins(self):
        instance = A2AInstance([1] * 7, 7)
        bins = [(4, 0), (6,), (), (5, 1, 3), (2,)]
        blocks = [(0, 3), (1, 2, 4), (2,), (0, 1, 3, 4)]
        schema = A2ASchema.from_bins(instance, bins, blocks, algorithm="bins")
        concatenated = [[i for b in block for i in bins[b]] for block in blocks]
        assert schema == A2ASchema.from_lists(instance, concatenated, "bins")
        assert schema.reducers[0] == (0, 1, 3, 4, 5)

    def test_capacity_violation_detected(self):
        instance = A2AInstance([6, 6], 12)
        overloaded = A2ASchema.from_lists(instance, [[0, 1], [0, 1, 0]])
        # second reducer dedupes to the same pair; craft a real overflow:
        instance2 = A2AInstance([6, 6, 6], 12)
        bad = A2ASchema.from_lists(instance2, [[0, 1, 2]])
        report = bad.verify()
        assert not report.valid
        assert report.capacity_violations == ((0, 18),)
        assert overloaded.verify().valid

    def test_uncovered_pair_detected(self):
        instance = A2AInstance([1, 1, 1], 4)
        partial = A2ASchema.from_lists(instance, [[0, 1]])
        report = partial.verify()
        assert not report.valid
        assert (0, 2) in report.uncovered_pairs
        assert (1, 2) in report.uncovered_pairs

    def test_require_valid_raises_with_report(self):
        instance = A2AInstance([1, 1, 1], 4)
        partial = A2ASchema.from_lists(instance, [[0, 1]], algorithm="bad")
        with pytest.raises(InvalidSchemaError) as excinfo:
            partial.require_valid()
        assert excinfo.value.report is not None
        assert not excinfo.value.report.valid

    def test_require_valid_returns_self(self):
        schema = make_valid_a2a_schema()
        assert schema.require_valid() is schema

    def test_single_input_schema(self):
        instance = A2AInstance([5], 5)
        schema = A2ASchema.from_lists(instance, [[0]])
        assert schema.verify().valid

    def test_empty_schema_invalid_for_multi_input(self):
        instance = A2AInstance([1, 1], 4)
        schema = A2ASchema.from_lists(instance, [])
        assert not schema.verify().valid

    def test_report_summary_strings(self):
        good = make_valid_a2a_schema().verify()
        assert "valid" in good.summary()
        instance = A2AInstance([1, 1], 4)
        bad = A2ASchema.from_lists(instance, []).verify()
        assert "INVALID" in bad.summary()


class TestX2YSchema:
    def test_valid_grid(self, small_x2y):
        schema = X2YSchema.from_lists(
            small_x2y,
            [((0, 1, 2), (j,)) for j in range(3)],
        )
        # loads: (4+5+6) + y_j = 15 + up to 7 > 14 -> invalid; use per-pair.
        report = schema.verify()
        assert not report.valid  # capacity breaks on the big y

    def test_valid_per_pair_schema(self, small_x2y):
        schema = X2YSchema.from_lists(
            small_x2y,
            [((i,), (j,)) for i in range(3) for j in range(3)],
        )
        report = schema.verify()
        assert report.valid
        assert report.num_reducers == 9

    def test_uncovered_cross_pair(self, small_x2y):
        schema = X2YSchema.from_lists(small_x2y, [((0,), (0,))])
        report = schema.verify()
        assert not report.valid
        assert (0, 1) in report.uncovered_pairs

    def test_from_lists_dedupes_and_sorts_both_sides(self):
        instance = X2YInstance([1, 1, 1], [1, 1], 9)
        raw = [([2, 0, 2, 2], (1, 1, 0)), ((), [1]), (iter([1, 0, 1]), {0})]
        schema = X2YSchema.from_lists(instance, raw)
        assert schema.reducers == (((0, 2), (0, 1)), ((), (1,)), ((0, 1), (0,)))

    def test_loads_sum_both_sides(self):
        instance = X2YInstance([2, 3], [4], 9)
        schema = X2YSchema.from_lists(instance, [((0, 1), (0,))])
        assert schema.loads == (9,)

    def test_replication_both_sides(self):
        instance = X2YInstance([2, 3], [4], 9)
        schema = X2YSchema.from_lists(instance, [((0,), (0,)), ((1,), (0,))])
        x_rep, y_rep = schema.replication
        assert x_rep == (1, 1)
        assert y_rep == (2,)

    def test_communication_cost(self):
        instance = X2YInstance([2, 3], [4], 9)
        schema = X2YSchema.from_lists(instance, [((0,), (0,)), ((1,), (0,))])
        assert schema.communication_cost == 2 + 4 + 3 + 4

    def test_require_valid_raises(self, small_x2y):
        schema = X2YSchema.from_lists(small_x2y, [])
        with pytest.raises(InvalidSchemaError):
            schema.require_valid()
