"""Property tests (hypothesis) for the reducer-bitmask ownership rule.

A schema may place a pair of inputs at several reducers; the apps emit a
pair only at the reducer that owns it.  Reducer ``r`` owns a pair it holds
iff ``masks[a] & masks[b] & ((1 << r) - 1) == 0``.  These tests check that
rule against :func:`canonical_meeting` (the smallest shared reducer) on
schemas from every solver method, and that each required pair is owned by
exactly one reducer.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import A2AInstance, X2YInstance
from repro.core.selector import A2A_METHODS, X2Y_METHODS, solve_a2a, solve_x2y
from repro.engine.routing import (
    a2a_memberships,
    a2a_reducer_masks,
    canonical_meeting,
    x2y_memberships,
    x2y_reducer_masks,
)
from repro.exceptions import ReproError

#: Exhaustive search is exponential; larger instances skip it.
EXACT_MAX_INPUTS = 7


@st.composite
def a2a_instances(draw):
    """A feasible A2A instance, possibly with one input above ``q // 2``."""
    q = draw(st.integers(4, 40))
    sizes = draw(st.lists(st.integers(1, q // 2), min_size=1, max_size=14))
    if draw(st.booleans()):
        big = draw(st.integers(q // 2 + 1, q - 1))
        sizes = [min(s, q - big) for s in sizes] + [big]
    return A2AInstance(sizes, q)


@st.composite
def x2y_instances(draw):
    """A feasible X2Y instance: every X input co-fits with every Y input."""
    q = draw(st.integers(4, 40))
    x_max = draw(st.integers(1, q - 1))
    xs = draw(st.lists(st.integers(1, x_max), min_size=1, max_size=9))
    ys = draw(st.lists(st.integers(1, q - x_max), min_size=1, max_size=9))
    return X2YInstance(xs, ys, q)


def schemas(instance, methods, solve, inputs):
    """The schema of every method that solves *instance*."""
    out = []
    for method in methods:
        if method == "exact" and inputs > EXACT_MAX_INPUTS:
            continue
        try:
            out.append(solve(instance, method))
        except ReproError:
            continue  # the method does not handle this instance shape
    return out


def owns(r, mask_a, mask_b):
    return mask_a & mask_b & ((1 << r) - 1) == 0


@settings(deadline=None)
@given(a2a_instances())
def test_a2a_mask_rule_matches_canonical_meeting(instance):
    solved = schemas(instance, ["auto", *A2A_METHODS], solve_a2a, instance.m)
    assert solved, "auto must solve every feasible instance"
    for schema in solved:
        masks = a2a_reducer_masks(schema)
        memberships = a2a_memberships(schema)
        owned = Counter()
        for r, members in enumerate(schema.reducers):
            for a, b in combinations(sorted(members), 2):
                canonical = canonical_meeting(memberships[a], memberships[b])
                assert owns(r, masks[a], masks[b]) == (canonical == r)
                if owns(r, masks[a], masks[b]):
                    owned[(a, b)] += 1
        required = set(combinations(range(instance.m), 2))
        assert set(owned) == required
        assert all(count == 1 for count in owned.values())


@settings(deadline=None)
@given(x2y_instances())
def test_x2y_mask_rule_matches_canonical_meeting(instance):
    solved = schemas(
        instance, ["auto", *X2Y_METHODS], solve_x2y, instance.m + instance.n
    )
    assert solved, "auto must solve every feasible instance"
    for schema in solved:
        x_masks, y_masks = x2y_reducer_masks(schema)
        x_members, y_members = x2y_memberships(schema)
        owned = Counter()
        for r, (x_part, y_part) in enumerate(schema.reducers):
            for i in x_part:
                for j in y_part:
                    canonical = canonical_meeting(x_members[i], y_members[j])
                    assert owns(r, x_masks[i], y_masks[j]) == (canonical == r)
                    if owns(r, x_masks[i], y_masks[j]):
                        owned[(i, j)] += 1
        required = {(i, j) for i in range(instance.m) for j in range(instance.n)}
        assert set(owned) == required
        assert all(count == 1 for count in owned.values())


def test_masks_set_one_bit_per_membership():
    schema = solve_a2a(A2AInstance([3, 5, 2, 7, 4], q=12))
    masks = a2a_reducer_masks(schema)
    for i, reducers in enumerate(a2a_memberships(schema)):
        assert masks[i] == sum(1 << r for r in reducers)
