"""The triple-bin A2A scheme and the fast path's count-first choice.

``triple_bins`` packs inputs into bins of ``q // 3`` and gives each
Steiner triple of bins one reducer.  The fast path weighs bin-pairing,
triple bins and quadruple bins (:mod:`repro.core.a2a.quad_bins`) on
counts predicted from FFD bin loads and builds only the winner; these
tests pin that the predictions equal the built schemas' counts and that
the choice equals building all three and applying the rule.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binpack.ffd import first_fit_decreasing
from repro.core.a2a import ffd_pairing, quad_bins, triple_bins
from repro.core.a2a.triple_bins import bin_triples, triple_bin_costs
from repro.core.bounds import a2a_communication_lower_bound, a2a_reducer_lower_bound
from repro.core.instance import A2AInstance
from repro.core.selector import A2A_METHODS
from repro.exceptions import InvalidInstanceError
from repro.planner import Environment, JobSpec, fast_path_a2a, plan
from repro.workloads.distributions import sample_sizes

ENV = Environment(num_workers=2, memory_bytes=1 << 30)


@st.composite
def mixed_a2a(draw, max_size: int = 3):
    """An A2A instance of at least two distinct sizes, every one at most
    ``q // max_size`` (3: triple-bin shapes; 2: the fast path's
    no-big-input branch)."""
    q = draw(st.integers(6, 90))
    sizes = draw(st.lists(st.integers(1, q // max_size), min_size=2, max_size=60))
    if len(set(sizes)) == 1:
        sizes.append(sizes[0] % (q // max_size) + 1)
    return A2AInstance(sizes, q)


def _predicted(reason: str) -> tuple[int, int]:
    match = re.fullmatch(r"predicted (\d+) reducers, communication (\d+); not built", reason)
    assert match, reason
    return int(match[1]), int(match[2])


class TestBinTriples:
    @pytest.mark.parametrize("num_bins", [4, 5, 8, 9, 10, 14, 15, 16, 40, 466])
    def test_every_pair_of_real_bins_meets_exactly_once(self, num_bins):
        meets: dict[tuple[int, int], int] = {}
        for triple in bin_triples(num_bins):
            real = [b for b in triple if b < num_bins]
            assert len(real) >= 2
            for pos, a in enumerate(real):
                for b in real[pos + 1:]:
                    meets[(a, b)] = meets.get((a, b), 0) + 1
        assert len(meets) == num_bins * (num_bins - 1) // 2
        assert set(meets.values()) == {1}


class TestTripleBins:
    def test_valid_and_above_bounds_on_the_benchmark_shape(self):
        instance = A2AInstance(sample_sizes("uniform", 300, 200, seed=1), 200)
        schema = triple_bins(instance)
        assert schema.verify().valid
        assert schema.num_reducers >= a2a_reducer_lower_bound(instance)
        assert schema.communication_cost >= a2a_communication_lower_bound(instance)
        assert schema.num_reducers < ffd_pairing(instance).num_reducers

    def test_at_most_three_bins_use_one_reducer(self):
        instance = A2AInstance([3, 1, 2, 2, 1, 3], 12)  # 3 bins of 4
        assert first_fit_decreasing(instance.sizes, 4).num_bins == 3
        assert triple_bins(instance).reducers == ((0, 1, 2, 3, 4, 5),)
        assert triple_bins(A2AInstance([3], 9)).reducers == ((0,),)

    def test_rejects_inputs_above_a_third(self):
        with pytest.raises(InvalidInstanceError, match="q//3 = 4"):
            triple_bins(A2AInstance([5, 2, 3], 12))

    @settings(deadline=None, max_examples=60)
    @given(mixed_a2a())
    def test_predicted_costs_equal_the_schema(self, instance):
        schema = triple_bins(instance)
        loads = first_fit_decreasing(instance.sizes, instance.q // 3).bin_loads()
        assert triple_bin_costs(loads) == (
            schema.num_reducers,
            schema.communication_cost,
        )


@settings(deadline=None, max_examples=60)
@given(mixed_a2a(max_size=2), st.randoms(use_true_random=False))
def test_costs_depend_only_on_the_size_multiset(instance, rng):
    """Permuting the inputs changes neither the fast path's choice nor
    any bin scheme's counts."""
    shuffled = A2AInstance(rng.sample(instance.sizes, instance.m), instance.q)
    chosen, considered, _, skipped = fast_path_a2a(instance)
    chosen_again, again, _, skipped_again = fast_path_a2a(shuffled)
    assert chosen_again == chosen
    assert skipped_again == skipped
    pairs = [(considered[chosen], again[chosen])]
    if max(instance.sizes) <= instance.q // 3:
        pairs.append((triple_bins(instance), triple_bins(shuffled)))
    if max(instance.sizes) <= instance.q // 4:
        pairs.append((quad_bins(instance), quad_bins(shuffled)))
    for a, b in pairs:
        assert (a.num_reducers, a.communication_cost) == (
            b.num_reducers,
            b.communication_cost,
        )


def _no_worse(a, b) -> bool:
    return (
        a.num_reducers <= b.num_reducers
        and a.communication_cost <= b.communication_cost
    )


@settings(deadline=None, max_examples=80)
@given(mixed_a2a(max_size=2))
def test_fast_path_builds_the_winner_of_the_bin_schemes(instance):
    """Triple bins replace bin-pairing exactly when, built, they are no
    worse on both reducers and communication, and quadruple bins replace
    that choice on the same terms; the losers are only counted, and
    their predicted counts are those of their schemas."""
    chosen, considered, rule, skipped = fast_path_a2a(instance)
    assert "no big inputs" in rule
    assert list(considered) == [chosen]
    assert considered[chosen].reducers == A2A_METHODS[chosen](instance).reducers
    expected = "bin_pairing"
    if max(instance.sizes) > instance.q // 3:
        assert skipped == {
            "triple_bins": f"an input exceeds q//3 = {instance.q // 3}",
            "quad_bins": f"an input exceeds q//4 = {instance.q // 4}",
        }
    else:
        if _no_worse(triple_bins(instance), ffd_pairing(instance)):
            expected = "triple_bins"
        if max(instance.sizes) > instance.q // 4:
            assert skipped["quad_bins"] == (
                f"an input exceeds q//4 = {instance.q // 4}"
            )
        elif _no_worse(quad_bins(instance), A2A_METHODS[expected](instance)):
            expected = "quad_bins"
        for loser, reason in skipped.items():
            if not reason.startswith("an input exceeds"):
                built = A2A_METHODS[loser](instance)
                assert _predicted(reason) == (
                    built.num_reducers,
                    built.communication_cost,
                )
    assert chosen == expected
    assert set(skipped) == {"bin_pairing", "triple_bins", "quad_bins"} - {chosen}


def test_plan_lists_the_losers_as_skipped():
    sizes = sample_sizes("uniform", 300, 200, seed=1)
    planned = plan(JobSpec.a2a(sizes, 200), ENV)
    assert planned.chosen == "quad_bins"
    assert planned.chosen_score.num_reducers == planned.schema().num_reducers
    instance = A2AInstance(sizes, 200)
    for loser in ("bin_pairing", "triple_bins"):
        candidate = planned.candidate(loser)
        assert candidate.status == "skipped"
        built = A2A_METHODS[loser](instance)
        assert _predicted(candidate.reason) == (
            built.num_reducers,
            built.communication_cost,
        )
