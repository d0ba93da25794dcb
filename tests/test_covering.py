"""Unit tests for covering designs and the grouped-covering A2A scheme."""

from __future__ import annotations

import pytest

from repro.core.a2a import equal_sized_grouping, grouped_covering
from repro.core.bounds import (
    a2a_communication_lower_bound,
    a2a_equal_sized_reducer_bound,
    a2a_reducer_lower_bound,
)
from repro.core.instance import A2AInstance
from repro.covering.designs import (
    greedy_pair_cover,
    pair_cover,
    schonheim_lower_bound,
    steiner_triple_system,
    validate_pair_cover,
)
from repro.core.selector import solve_a2a
from repro.core.verify import verify_a2a
from repro.exceptions import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    ReproError,
    SolverLimitError,
)
from repro.planner.fastpath import fast_path_a2a


class TestSchonheimBound:
    def test_block_covers_all(self):
        assert schonheim_lower_bound(5, 5) == 1
        assert schonheim_lower_bound(5, 7) == 1

    def test_pairs_case(self):
        # s=2: bound equals C(t,2)... ceil(t/2 * (t-1)) = C(t,2) for even t.
        assert schonheim_lower_bound(6, 2) == 15

    def test_steiner_case_exact(self):
        # t=9, s=3: bound is 12, met by the affine plane AG(2,3).
        assert schonheim_lower_bound(9, 3) == 12

    def test_rejects_bad_block_size(self):
        with pytest.raises(InvalidInstanceError):
            schonheim_lower_bound(5, 1)


class TestSteinerTripleSystem:
    @pytest.mark.parametrize("t", [3, 9, 15, 21, 27, 33, 39, 471])
    def test_valid_and_exactly_minimal(self, t):
        triples = steiner_triple_system(t)
        validate_pair_cover(t, triples, s=3)
        assert all(a < b < c for a, b, c in triples)
        # A Steiner system has exactly t(t-1)/6 triples: every pair once.
        assert len(triples) == t * (t - 1) // 6
        assert len(triples) == schonheim_lower_bound(t, 3)

    def test_every_pair_exactly_once(self):
        triples = steiner_triple_system(9)
        seen = {}
        for block in triples:
            ordered = sorted(block)
            for a_pos, a in enumerate(ordered):
                for b in ordered[a_pos + 1:]:
                    seen[(a, b)] = seen.get((a, b), 0) + 1
        assert set(seen.values()) == {1}

    def test_rejects_unsupported_t(self):
        with pytest.raises(InvalidInstanceError):
            steiner_triple_system(7)  # 7 = 6n+1 not implemented exactly
        with pytest.raises(InvalidInstanceError):
            steiner_triple_system(8)


class TestGreedyPairCover:
    @pytest.mark.parametrize("t,s", [(4, 2), (7, 3), (10, 4), (13, 5), (20, 6)])
    def test_valid_cover(self, t, s):
        blocks = greedy_pair_cover(t, s)
        validate_pair_cover(t, blocks, s=s)

    def test_respects_schonheim(self):
        for t, s in [(8, 3), (12, 4), (16, 4)]:
            assert len(greedy_pair_cover(t, s)) >= schonheim_lower_bound(t, s)

    def test_single_point(self):
        assert greedy_pair_cover(1, 3) == [(0,)]

    def test_block_covers_everything(self):
        assert greedy_pair_cover(4, 10) == [(0, 1, 2, 3)]

    def test_within_log_factor_of_bound(self):
        t, s = 20, 4
        blocks = greedy_pair_cover(t, s)
        assert len(blocks) <= 4 * schonheim_lower_bound(t, s)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInstanceError):
            greedy_pair_cover(0, 3)
        with pytest.raises(InvalidInstanceError):
            greedy_pair_cover(5, 1)


class TestPairCoverFrontDoor:
    def test_uses_steiner_when_applicable(self):
        blocks = pair_cover(15, 3)
        assert len(blocks) == 15 * 14 // 6  # exact STS size

    def test_falls_back_to_greedy(self):
        blocks = pair_cover(10, 3)
        validate_pair_cover(10, blocks, s=3)


class TestGroupedCovering:
    def test_valid_schema(self):
        instance = A2AInstance.equal_sized(90, 1, 6)
        schema = grouped_covering(instance)
        assert schema.verify().valid

    def test_beats_plain_grouping_when_steiner_applies(self):
        # k=6, m=90: plain grouping uses C(30,2)=435; covering with g=2
        # gives t=45 ≡ 3 (mod 6) -> STS of 330 blocks.
        instance = A2AInstance.equal_sized(90, 1, 6)
        plain = equal_sized_grouping(instance)
        covered = grouped_covering(instance)
        assert covered.num_reducers < plain.num_reducers

    def test_never_below_lower_bound(self):
        instance = A2AInstance.equal_sized(60, 2, 12)
        schema = grouped_covering(instance)
        k = 12 // 2
        assert schema.num_reducers >= a2a_equal_sized_reducer_bound(60, k)

    def test_single_reducer_cases(self):
        assert grouped_covering(A2AInstance.equal_sized(4, 1, 8)).num_reducers == 1
        assert grouped_covering(A2AInstance.equal_sized(1, 3, 3)).num_reducers == 1

    def test_infeasible_k1(self):
        with pytest.raises(InfeasibleInstanceError):
            grouped_covering(A2AInstance.equal_sized(3, 4, 7))

    def test_rejects_mixed_sizes(self, small_a2a):
        with pytest.raises(InvalidInstanceError):
            grouped_covering(small_a2a)

    def test_loads_bounded(self):
        instance = A2AInstance.equal_sized(50, 3, 21)  # k=7, odd
        schema = grouped_covering(instance)
        assert schema.verify().valid
        assert schema.max_load <= instance.q

    @pytest.mark.parametrize("m,w,q", [(24, 1, 4), (36, 1, 6), (40, 2, 12), (55, 1, 9)])
    def test_valid_across_shapes(self, m, w, q):
        schema = grouped_covering(A2AInstance.equal_sized(m, w, q))
        assert schema.verify().valid


class TestGroupedCoveringSizeLimit:
    """m=1300, k=8: every group size needs a design over more than 300
    groups without the Steiner shortcut, so the scheme gives up."""

    INSTANCE = A2AInstance([8] * 1300, q=64)

    def test_raises_typed_error(self):
        with pytest.raises(SolverLimitError) as excinfo:
            grouped_covering(self.INSTANCE)
        assert isinstance(excinfo.value, ReproError)

    def test_fast_path_compares_only_successful_candidates(self):
        chosen, considered, _, _ = fast_path_a2a(self.INSTANCE)
        assert chosen == "equal_grouping"
        assert list(considered) == ["equal_grouping"]

    def test_auto_solves_valid_and_above_lower_bounds(self):
        schema = solve_a2a(self.INSTANCE)
        assert verify_a2a(schema).valid
        assert schema.num_reducers >= a2a_reducer_lower_bound(self.INSTANCE)
        assert schema.communication_cost >= a2a_communication_lower_bound(
            self.INSTANCE
        )
