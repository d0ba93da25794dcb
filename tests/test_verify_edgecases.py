"""Edge-case tests for the verification layer (reporting behaviour)."""

from __future__ import annotations

from repro.core.instance import A2AInstance, X2YInstance
from repro.core.schema import A2ASchema, X2YSchema
from repro.core.verify import _MAX_REPORTED


class TestReportTruncation:
    def test_uncovered_pairs_capped(self):
        # 40 inputs, empty schema: C(40,2) = 780 uncovered pairs, but the
        # report enumerates at most the cap (diagnostics, not a dump).
        instance = A2AInstance([1] * 40, 4)
        report = A2ASchema.from_lists(instance, []).verify()
        assert not report.valid
        assert len(report.uncovered_pairs) == _MAX_REPORTED

    def test_capacity_violations_capped(self):
        instance = A2AInstance([3] * 100, 4)
        overloaded = A2ASchema.from_lists(
            instance, [[i, (i + 1) % 100] for i in range(100)]
        )
        report = overloaded.verify()
        assert not report.valid
        assert len(report.capacity_violations) <= _MAX_REPORTED

    def test_x2y_uncovered_capped(self):
        instance = X2YInstance([1] * 20, [1] * 20, 4)
        report = X2YSchema.from_lists(instance, []).verify()
        assert not report.valid
        assert len(report.uncovered_pairs) == _MAX_REPORTED


class TestReportContents:
    def test_first_uncovered_pair_is_smallest(self):
        instance = A2AInstance([1, 1, 1], 4)
        report = A2ASchema.from_lists(instance, [[1, 2]]).verify()
        assert report.uncovered_pairs[0] == (0, 1)

    def test_capacity_violation_records_load(self):
        instance = A2AInstance([3, 3, 3], 6)
        report = A2ASchema.from_lists(instance, [[0, 1, 2]]).verify()
        assert report.capacity_violations == ((0, 9),)

    def test_valid_report_has_empty_diagnostics(self):
        instance = A2AInstance([1, 1], 4)
        report = A2ASchema.from_lists(instance, [[0, 1]]).verify()
        assert report.valid
        assert report.capacity_violations == ()
        assert report.uncovered_pairs == ()
        assert report.duplicate_assignments == ()

    def test_x2y_load_sums_both_sides_exactly(self):
        # 3 + 4 == 7 fits exactly; adding one more unit input breaks it.
        fits = X2YSchema.from_lists(X2YInstance([3], [4], 7), [((0,), (0,))])
        assert fits.verify().valid
        instance = X2YInstance([3, 1], [4], 7)
        overflows = X2YSchema.from_lists(instance, [((0, 1), (0,))])
        report = overflows.verify()
        assert not report.valid
        assert report.capacity_violations == ((0, 8),)

