"""Property-based tests: every algorithm yields valid schemas above bounds.

These are the library's central invariants, straight from the paper's
mapping-schema definition: whatever the instance, a produced schema must
(i) respect the capacity at every reducer and (ii) cover every required
pair, and it can never use fewer reducers than the lower bounds allow.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.a2a import big_small, greedy_cover
from repro.core.bounds import (
    a2a_communication_lower_bound,
    a2a_reducer_lower_bound,
    x2y_communication_lower_bound,
    x2y_reducer_lower_bound,
)
from repro.core.instance import A2AInstance, X2YInstance
from repro.core.selector import A2A_METHODS, X2Y_METHODS, solve_a2a, solve_x2y
from repro.core.x2y import best_split_grid, big_small_x2y, greedy_cover_x2y
from repro.exceptions import InvalidInstanceError, ReproError, SolverLimitError
from repro.planner.planner import _skip_reason


@st.composite
def feasible_a2a(draw):
    """A feasible A2A instance: all sizes within q and top two co-fit."""
    q = draw(st.integers(4, 60))
    m = draw(st.integers(1, 20))
    sizes = draw(st.lists(st.integers(1, q // 2), min_size=m, max_size=m))
    return A2AInstance(sizes, q)


@st.composite
def feasible_a2a_with_bigs(draw):
    """A feasible A2A instance that may contain big inputs (> q//2)."""
    q = draw(st.integers(6, 60))
    m = draw(st.integers(1, 14))
    # At most one input above q/2 guarantees feasibility with any partner
    # <= q//2 ... actually one big of size <= q - (q//2) partner is safe:
    big = draw(st.integers(q // 2 + 1, q - 1)) if draw(st.booleans()) else None
    smalls = draw(
        st.lists(st.integers(1, min(q // 2, q - big if big else q // 2)),
                 min_size=m, max_size=m)
    )
    sizes = smalls + ([big] if big else [])
    return A2AInstance(sizes, q)


@st.composite
def feasible_x2y(draw):
    """A feasible X2Y instance with sizes up to q//2 on both sides."""
    q = draw(st.integers(4, 60))
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    xs = draw(st.lists(st.integers(1, q // 2), min_size=m, max_size=m))
    ys = draw(st.lists(st.integers(1, q // 2), min_size=n, max_size=n))
    return X2YInstance(xs, ys, q)


@settings(deadline=None, max_examples=60)
@given(feasible_a2a())
def test_auto_a2a_schema_is_valid(instance):
    schema = solve_a2a(instance)
    report = schema.verify()
    assert report.valid, report.summary()


@settings(deadline=None, max_examples=60)
@given(feasible_a2a())
def test_auto_a2a_respects_reducer_lower_bound(instance):
    schema = solve_a2a(instance)
    assert schema.num_reducers >= a2a_reducer_lower_bound(instance)


@settings(deadline=None, max_examples=60)
@given(feasible_a2a())
def test_auto_a2a_communication_at_least_bound(instance):
    schema = solve_a2a(instance)
    assert schema.communication_cost >= a2a_communication_lower_bound(instance)


@settings(deadline=None, max_examples=60)
@given(feasible_a2a_with_bigs())
def test_big_small_valid_with_big_inputs(instance):
    schema = big_small(instance)
    report = schema.verify()
    assert report.valid, report.summary()
    assert schema.max_load <= instance.q


@settings(deadline=None, max_examples=40)
@given(feasible_a2a())
def test_greedy_a2a_valid(instance):
    schema = greedy_cover(instance)
    assert schema.verify().valid


@settings(deadline=None, max_examples=60)
@given(feasible_x2y())
def test_auto_x2y_schema_is_valid(instance):
    schema = solve_x2y(instance)
    report = schema.verify()
    assert report.valid, report.summary()


@settings(deadline=None, max_examples=60)
@given(feasible_x2y())
def test_auto_x2y_respects_reducer_lower_bound(instance):
    schema = solve_x2y(instance)
    assert schema.num_reducers >= x2y_reducer_lower_bound(instance)


@settings(deadline=None, max_examples=40)
@given(feasible_x2y())
def test_grid_and_big_small_x2y_valid(instance):
    assert best_split_grid(instance).verify().valid
    assert big_small_x2y(instance).verify().valid


@settings(deadline=None, max_examples=25)
@given(feasible_x2y())
def test_greedy_x2y_valid(instance):
    schema = greedy_cover_x2y(instance)
    assert schema.verify().valid


@settings(deadline=None, max_examples=60)
@given(feasible_a2a())
def test_replication_counts_consistent_with_communication(instance):
    """comm cost == sum over inputs of size * replication."""
    schema = solve_a2a(instance)
    recomputed = sum(
        w * r for w, r in zip(instance.sizes, schema.replication)
    )
    assert recomputed == schema.communication_cost


def _sizes_up_to(largest):
    """One side's sizes, topped by an input of size *largest*: arbitrary
    sizes, a few repeated ones, or all equal."""
    return st.one_of(
        st.lists(st.integers(1, largest), max_size=11),
        st.lists(st.sampled_from([1, max(1, largest // 3), largest]), max_size=11),
        st.integers(0, 11).map(lambda n: [largest] * n),
    ).map(lambda sizes: sizes + [largest])


@st.composite
def feasible_x2y_any_sizes(draw):
    """A feasible X2Y instance whose inputs may exceed q/2 on one side."""
    q = draw(st.integers(2, 40))
    max_x = draw(st.integers(1, q - 1))
    max_y = draw(st.integers(1, q - max_x))
    return X2YInstance(draw(_sizes_up_to(max_x)), draw(_sizes_up_to(max_y)), q)


@settings(deadline=None, max_examples=80)
@given(feasible_x2y_any_sizes())
def test_every_x2y_method_valid_and_above_bounds(instance):
    """Every registered method the planner would try either refuses the
    shape with a typed error or builds a valid schema within the bounds."""
    reducer_bound = x2y_reducer_lower_bound(instance)
    communication_bound = x2y_communication_lower_bound(instance)
    for name, method in X2Y_METHODS.items():
        if _skip_reason(name, instance) is not None:
            continue
        try:
            schema = method(instance)
        except (InvalidInstanceError, SolverLimitError):
            # equal_grid on unequal sizes; exact past its node budget, as on
            # X2YInstance([1, 3], [1] * 12, 6).  The planner records both as
            # failed candidates.
            continue
        report = schema.verify()
        assert report.valid, f"{name}: {report.summary()}"
        assert schema.num_reducers >= reducer_bound, name
        assert schema.communication_cost >= communication_bound, name


#: Exhaustive search is exponential; larger instances skip it.
EXACT_MAX_INPUTS = 7


@st.composite
def feasible_a2a_any_sizes(draw):
    """A feasible A2A instance: arbitrary, repeated or equal sizes, at
    most one of them above ``q // 2``."""
    q = draw(st.integers(2, 40))
    largest = draw(st.integers(1, q - 1))
    rest = draw(_sizes_up_to(min(largest, q - largest)))
    return A2AInstance(draw(st.permutations([largest, *rest])), q)


@settings(deadline=None, max_examples=80)
@given(feasible_a2a_any_sizes())
def test_every_a2a_method_valid_and_above_bounds(instance):
    """The A2A analogue of the X2Y test above: every registered method
    either refuses the shape with a typed error or builds a valid schema
    within both lower bounds."""
    reducer_bound = a2a_reducer_lower_bound(instance)
    communication_bound = a2a_communication_lower_bound(instance)
    for name, method in A2A_METHODS.items():
        if name == "exact" and instance.m > EXACT_MAX_INPUTS:
            continue
        try:
            schema = method(instance)
        except (InvalidInstanceError, SolverLimitError):
            # equal_grouping and grouped_covering on unequal sizes; exact
            # past its node budget.
            continue
        report = schema.verify()
        assert report.valid, f"{name}: {report.summary()}"
        assert schema.num_reducers >= reducer_bound, name
        assert schema.communication_cost >= communication_bound, name


@st.composite
def infeasible_x2y(draw):
    """An X2Y instance whose largest X and largest Y overflow q together."""
    q = draw(st.integers(2, 40))
    max_x = draw(st.integers(1, q))
    max_y = draw(st.integers(q - max_x + 1, q))
    return X2YInstance(draw(_sizes_up_to(max_x)), draw(_sizes_up_to(max_y)), q)


@st.composite
def infeasible_a2a(draw):
    """An A2A instance whose two largest inputs overflow q together."""
    q = draw(st.integers(2, 40))
    largest = draw(st.integers((q + 2) // 2, q))
    second = draw(st.integers(q - largest + 1, largest))
    rest = draw(st.lists(st.integers(1, second), max_size=8))
    return A2AInstance(draw(st.permutations([largest, second, *rest])), q)


@pytest.mark.parametrize("name", sorted(X2Y_METHODS))
@settings(deadline=None, max_examples=40)
@given(instance=infeasible_x2y())
def test_every_x2y_method_raises_typed_error_on_infeasible(name, instance):
    with pytest.raises(ReproError):
        X2Y_METHODS[name](instance)


@pytest.mark.parametrize("name", sorted(A2A_METHODS))
@settings(deadline=None, max_examples=40)
@given(instance=infeasible_a2a())
def test_every_a2a_method_raises_typed_error_on_infeasible(name, instance):
    with pytest.raises(ReproError):
        A2A_METHODS[name](instance)
