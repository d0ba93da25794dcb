"""The triple-bin A2A scheme and the fast path's count-first choice.

``triple_bins`` packs inputs into bins of ``q // 3`` and gives each
Steiner triple of bins one reducer.  The fast path weighs it against
bin-pairing on counts predicted from FFD bin loads and builds only the
winner; these tests pin that the predictions equal the built schemas'
counts and that the choice equals building both and comparing.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binpack.ffd import first_fit_decreasing
from repro.core.a2a import ffd_pairing, triple_bins
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
    """Permuting the inputs changes neither scheme's counts."""
    shuffled = A2AInstance(rng.sample(instance.sizes, instance.m), instance.q)
    chosen, considered, _, _ = fast_path_a2a(instance)
    chosen_again, again, _, _ = fast_path_a2a(shuffled)
    assert chosen_again == chosen
    pairs = [(considered[chosen], again[chosen])]
    if max(instance.sizes) <= instance.q // 3:
        pairs.append((triple_bins(instance), triple_bins(shuffled)))
    for a, b in pairs:
        assert (a.num_reducers, a.communication_cost) == (
            b.num_reducers,
            b.communication_cost,
        )


@settings(deadline=None, max_examples=80)
@given(mixed_a2a(max_size=2))
def test_fast_path_builds_the_winner_of_both_schemas(instance):
    """Triple bins are chosen exactly when, built, they are no worse than
    bin-pairing on both reducers and communication; the loser is only
    counted, and its predicted counts are those of its schema."""
    chosen, considered, rule, skipped = fast_path_a2a(instance)
    assert "no big inputs" in rule
    assert list(considered) == [chosen]
    assert chosen in ("triple_bins", "bin_pairing")
    pairing = ffd_pairing(instance)
    assert considered[chosen].reducers == A2A_METHODS[chosen](instance).reducers
    if max(instance.sizes) > instance.q // 3:
        assert chosen == "bin_pairing"
        assert skipped == {"triple_bins": f"an input exceeds q//3 = {instance.q // 3}"}
        return
    triple = triple_bins(instance)
    no_worse = (
        triple.num_reducers <= pairing.num_reducers
        and triple.communication_cost <= pairing.communication_cost
    )
    assert chosen == ("triple_bins" if no_worse else "bin_pairing")
    (loser,) = skipped
    built = A2A_METHODS[loser](instance)
    assert _predicted(skipped[loser]) == (
        built.num_reducers,
        built.communication_cost,
    )


def test_plan_lists_the_loser_as_skipped():
    sizes = sample_sizes("uniform", 300, 200, seed=1)
    planned = plan(JobSpec.a2a(sizes, 200), ENV)
    assert planned.chosen == "triple_bins"
    assert planned.chosen_score.num_reducers == planned.schema().num_reducers
    loser = planned.candidate("bin_pairing")
    assert loser.status == "skipped"
    pairing = ffd_pairing(A2AInstance(sizes, 200))
    assert _predicted(loser.reason) == (
        pairing.num_reducers,
        pairing.communication_cost,
    )
