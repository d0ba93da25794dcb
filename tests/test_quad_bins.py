"""The quadruple-bin A2A scheme and its transversal-design cover.

``quad_bins`` packs inputs into bins of ``q // 4`` and gives each block of
:func:`repro.covering.designs.bin_quads` one reducer.  These tests pin
that the cover meets every pair of bins, that the counts predicted from
bin loads equal the built schema's, and the scheme's counts on the
``a2a_shuffle`` benchmark shape.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binpack.ffd import decreasing_runs, ffd_bin_count, first_fit_decreasing
from repro.core.a2a import quad_bins, triple_bins
from repro.core.a2a.quad_bins import quad_bin_costs
from repro.core.bounds import a2a_communication_lower_bound, a2a_reducer_lower_bound
from repro.core.instance import A2AInstance
from repro.covering.designs import bin_quad_counts, bin_quads
from repro.exceptions import InvalidInstanceError
from repro.planner import fast_path_a2a
from repro.workloads.distributions import sample_sizes

#: The ``a2a_shuffle`` benchmark shape: 1200 uniform inputs at q = 200.
SHUFFLE = A2AInstance(sample_sizes("uniform", 1200, 200, seed=1), 200)


@st.composite
def quarter_a2a(draw):
    """An A2A instance whose inputs all fit ``q // 4``."""
    q = draw(st.integers(4, 120))
    sizes = draw(st.lists(st.integers(1, q // 4), min_size=1, max_size=120))
    return A2AInstance(sizes, q)


class TestBinQuads:
    @pytest.mark.parametrize(
        "num_bins",
        [*range(2, 101), ffd_bin_count(decreasing_runs(SHUFFLE.sizes), 50)],
    )
    def test_every_pair_of_bins_meets_exactly_once(self, num_bins):
        meets: dict[tuple[int, int], int] = {}
        for block in bin_quads(num_bins):
            assert 2 <= len(block) <= 4
            assert list(block) == sorted(set(block))
            assert 0 <= block[0] and block[-1] < num_bins
            for pos, a in enumerate(block):
                for b in block[pos + 1:]:
                    meets[(a, b)] = meets.get((a, b), 0) + 1
        assert len(meets) == num_bins * (num_bins - 1) // 2
        assert set(meets.values()) == {1}

    def test_the_benchmark_shape_has_619_bins(self):
        assert ffd_bin_count(decreasing_runs(SHUFFLE.sizes), 50) == 619

    def test_at_most_four_bins_form_one_block(self):
        for num_bins in range(1, 5):
            assert bin_quads(num_bins) == [tuple(range(num_bins))]

    def test_rejects_no_bins(self):
        with pytest.raises(InvalidInstanceError):
            bin_quads(0)
        with pytest.raises(InvalidInstanceError):
            bin_quad_counts(0)

    def test_counts_equal_the_enumerated_blocks(self):
        for num_bins in [*range(1, 301), 619, 1257, 2001]:
            blocks = bin_quads(num_bins)
            held = [0] * num_bins
            for block in blocks:
                for point in block:
                    held[point] += 1
            assert bin_quad_counts(num_bins) == (len(blocks), held), num_bins


class TestQuadBins:
    def test_counts_on_the_benchmark_shape(self):
        schema = quad_bins(SHUFFLE)
        assert schema.verify().valid
        assert (schema.num_reducers, schema.communication_cost) == (
            33733,
            6504962,
        )
        assert sum(map(len, schema.reducers)) == 254286
        assert schema.num_reducers >= a2a_reducer_lower_bound(SHUFFLE)
        assert schema.communication_cost >= a2a_communication_lower_bound(SHUFFLE)
        triple = triple_bins(SHUFFLE)
        assert schema.num_reducers < triple.num_reducers
        assert schema.communication_cost < triple.communication_cost

    def test_at_most_four_bins_use_one_reducer(self):
        instance = A2AInstance([3, 1, 2, 2, 1, 3, 2, 2], 16)  # 4 bins of 4
        assert first_fit_decreasing(instance.sizes, 4).num_bins == 4
        assert quad_bins(instance).reducers == (tuple(range(8)),)
        assert quad_bins(A2AInstance([3], 12)).reducers == ((0,),)

    def test_rejects_inputs_above_a_quarter_before_packing(self, monkeypatch):
        def no_packing(*args, **kwargs):
            raise AssertionError("packed an instance it must refuse")

        # The package's quad_bins function shadows its module's name.
        module = importlib.import_module("repro.core.a2a.quad_bins")
        monkeypatch.setattr(module, "first_fit_decreasing", no_packing)
        with pytest.raises(InvalidInstanceError, match="q//4 = 3"):
            quad_bins(A2AInstance([4, 2, 3], 12))

    @settings(deadline=None, max_examples=80)
    @given(quarter_a2a())
    def test_predicted_costs_equal_the_schema(self, instance):
        schema = quad_bins(instance)
        assert schema.verify().valid
        loads = first_fit_decreasing(instance.sizes, instance.q // 4).bin_loads()
        assert quad_bin_costs(loads) == (
            schema.num_reducers,
            schema.communication_cost,
        )


@pytest.mark.parametrize("m,q", [(300, 120), (1200, 200)])
def test_fast_path_picks_quad_bins_where_they_are_no_worse(m, q):
    """On these uniform shapes quadruple bins beat triple bins on both
    counts, and the fast path builds them and only counts the others."""
    instance = A2AInstance(sample_sizes("uniform", m, q, seed=1), q)
    chosen, considered, _, skipped = fast_path_a2a(instance)
    assert chosen == "quad_bins"
    assert considered["quad_bins"].reducers == quad_bins(instance).reducers
    assert set(skipped) == {"bin_pairing", "triple_bins"}
    triple = triple_bins(instance)
    assert skipped["triple_bins"] == (
        f"predicted {triple.num_reducers} reducers, communication "
        f"{triple.communication_cost}; not built"
    )


def test_fast_path_enumerates_the_blocks_once(monkeypatch):
    """The prediction counts in closed form; only the build enumerates."""
    module = importlib.import_module("repro.core.a2a.quad_bins")
    calls = []

    def counted(num_bins):
        calls.append(num_bins)
        return bin_quads(num_bins)

    monkeypatch.setattr(module, "bin_quads", counted)
    chosen, _, _, _ = fast_path_a2a(SHUFFLE)
    assert chosen == "quad_bins"
    assert calls == [619]
