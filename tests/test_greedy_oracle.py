"""The bitmask greedy cover solvers against the set-based loops they replaced.

``reference_greedy_cover`` and ``reference_greedy_cover_x2y`` below are the
earlier set-based implementations, copied verbatim apart from their names.
They are the specification: on every instance and every ``max_reducers``
the bitmask solvers must return the same reducers, in the same order, with
the same ``algorithm``.  Tie-heavy sizes (few distinct values) and small
``q`` (many reducers) exercise the tie-break rules the module docstrings
describe.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.a2a.greedy import greedy_cover
from repro.core.instance import A2AInstance, X2YInstance
from repro.core.schema import A2ASchema, X2YSchema
from repro.core.x2y.greedy import greedy_cover_x2y
from repro.exceptions import ReproError
from repro.workloads.distributions import sample_sizes


def reference_greedy_cover(instance: A2AInstance, *, max_reducers: int | None = None) -> A2ASchema:
    """Cover all pairs greedily.

    *max_reducers* optionally caps the schema size (a safety valve for
    adversarial instances); by default the loop runs until every pair is
    covered, which always terminates because each iteration covers at least
    the seeding pair.

    Raises :class:`repro.exceptions.InfeasibleInstanceError` for infeasible
    instances.
    """
    instance.check_feasible()
    m = instance.m
    if m == 1:
        return A2ASchema.from_lists(instance, [[0]], algorithm="greedy_cover")

    sizes = instance.sizes
    q = instance.q
    uncovered: set[tuple[int, int]] = set(instance.pairs())
    # degree[i] = number of uncovered pairs touching input i.
    degree = [m - 1] * m
    reducers: list[list[int]] = []

    while uncovered:
        if max_reducers is not None and len(reducers) >= max_reducers:
            break
        # Seed with the uncovered pair of maximum joint degree that co-fits;
        # feasibility guarantees at least one uncovered pair fits (all do).
        seed = max(uncovered, key=lambda p: (degree[p[0]] + degree[p[1]], -sizes[p[0]] - sizes[p[1]]))
        members = {seed[0], seed[1]}
        load = sizes[seed[0]] + sizes[seed[1]]

        while True:
            best_gain = 0.0
            best_input = -1
            best_new = 0
            for i in range(m):
                if i in members or load + sizes[i] > q:
                    continue
                new_pairs = sum(
                    1 for j in members if (min(i, j), max(i, j)) in uncovered
                )
                if new_pairs == 0:
                    continue
                gain = new_pairs / sizes[i]
                if gain > best_gain:
                    best_gain = gain
                    best_input = i
                    best_new = new_pairs
            if best_input < 0 or best_new == 0:
                break
            members.add(best_input)
            load += sizes[best_input]

        reducer = sorted(members)
        reducers.append(reducer)
        for a_pos, i in enumerate(reducer):
            for j in reducer[a_pos + 1:]:
                pair = (i, j)
                if pair in uncovered:
                    uncovered.discard(pair)
                    degree[i] -= 1
                    degree[j] -= 1

    return A2ASchema.from_lists(instance, reducers, algorithm="greedy_cover")


def reference_greedy_cover_x2y(
    instance: X2YInstance, *, max_reducers: int | None = None
) -> X2YSchema:
    """Cover all cross pairs greedily; see module docstring.

    Raises :class:`repro.exceptions.InfeasibleInstanceError` for infeasible
    instances.  Terminates because every iteration covers its seed pair.
    """
    instance.check_feasible()
    xs, ys = instance.x_sizes, instance.y_sizes
    q = instance.q
    uncovered: set[tuple[int, int]] = set(instance.pairs())
    reducers: list[tuple[list[int], list[int]]] = []

    while uncovered:
        if max_reducers is not None and len(reducers) >= max_reducers:
            break
        seed_i, seed_j = next(iter(uncovered))
        x_members = {seed_i}
        y_members = {seed_j}
        load = xs[seed_i] + ys[seed_j]

        grew = True
        while grew:
            grew = False
            best_gain = 0.0
            best_choice: tuple[str, int] | None = None
            for i in range(instance.m):
                if i in x_members or load + xs[i] > q:
                    continue
                new_pairs = sum(1 for j in y_members if (i, j) in uncovered)
                if new_pairs and new_pairs / xs[i] > best_gain:
                    best_gain = new_pairs / xs[i]
                    best_choice = ("x", i)
            for j in range(instance.n):
                if j in y_members or load + ys[j] > q:
                    continue
                new_pairs = sum(1 for i in x_members if (i, j) in uncovered)
                if new_pairs and new_pairs / ys[j] > best_gain:
                    best_gain = new_pairs / ys[j]
                    best_choice = ("y", j)
            if best_choice is not None:
                side, index = best_choice
                if side == "x":
                    x_members.add(index)
                    load += xs[index]
                else:
                    y_members.add(index)
                    load += ys[index]
                grew = True

        reducers.append((sorted(x_members), sorted(y_members)))
        for i in x_members:
            for j in y_members:
                uncovered.discard((i, j))

    return X2YSchema.from_lists(instance, reducers, algorithm="greedy_cover_x2y")


@st.composite
def tie_heavy_sizes(draw, count: int, q: int) -> list[int]:
    """*count* sizes drawn from at most three values, each at most q // 2."""
    palette = draw(st.lists(st.integers(1, max(1, q // 2)), min_size=1, max_size=3))
    rng = draw(st.randoms(use_true_random=False))
    return [rng.choice(palette) for _ in range(count)]


@st.composite
def tie_heavy_a2a(draw) -> A2AInstance:
    """A feasible A2A instance of at most 40 inputs with repeated sizes."""
    q = draw(st.integers(6, 40))
    m = draw(st.integers(1, 40))
    return A2AInstance(draw(tie_heavy_sizes(m, q)), q)


@st.composite
def tie_heavy_x2y(draw) -> X2YInstance:
    """A feasible X2Y instance of at most 40 inputs with repeated sizes."""
    q = draw(st.integers(6, 40))
    m = draw(st.integers(1, 39))
    n = draw(st.integers(1, 40 - m))
    return X2YInstance(draw(tie_heavy_sizes(m, q)), draw(tie_heavy_sizes(n, q)), q)


CAPS = st.sampled_from([None, 0, 1, 3])


def assert_same_a2a(instance: A2AInstance, max_reducers: int | None = None) -> None:
    got = greedy_cover(instance, max_reducers=max_reducers)
    want = reference_greedy_cover(instance, max_reducers=max_reducers)
    assert got.reducers == want.reducers
    assert got.algorithm == want.algorithm


def assert_same_x2y(instance: X2YInstance, max_reducers: int | None = None) -> None:
    got = greedy_cover_x2y(instance, max_reducers=max_reducers)
    want = reference_greedy_cover_x2y(instance, max_reducers=max_reducers)
    assert got.reducers == want.reducers
    assert got.algorithm == want.algorithm


# The reference loops take up to about 0.1 s on a 40-input instance with
# small q, so the example count is fixed rather than scaled by the ci
# profile.
@settings(deadline=None, max_examples=300)
@given(tie_heavy_a2a(), CAPS)
def test_a2a_matches_reference(instance, max_reducers):
    assert_same_a2a(instance, max_reducers)


@settings(deadline=None, max_examples=300)
@given(tie_heavy_x2y(), CAPS)
def test_x2y_matches_reference(instance, max_reducers):
    assert_same_x2y(instance, max_reducers)


#: Instances at the planner's greedy input limit (64 inputs).
LIMIT_SIZES = [
    ([5] * 64, 20),
    ([3, 7] * 32, 30),
    (sample_sizes("zipf", 64, 60, seed=3), 60),
    (sample_sizes("bimodal", 64, 100, seed=4), 100),
]


@pytest.mark.parametrize("sizes, q", LIMIT_SIZES)
def test_a2a_matches_reference_at_the_limit(sizes, q):
    assert_same_a2a(A2AInstance(sizes, q))


@pytest.mark.parametrize("sizes, q", LIMIT_SIZES)
def test_x2y_matches_reference_at_the_limit(sizes, q):
    assert_same_x2y(X2YInstance(sizes[:24], sizes[24:], q))


def service_mix_shapes() -> list[A2AInstance | X2YInstance]:
    """The job shapes of the ``service_mix`` benchmark workload.

    Sixteen hot shapes, then the 60 templates a 300-job session permutes
    into fresh jobs: 12-48 inputs, q in 60-200, a2a and x2y 2:1, drawn
    from the size profiles with the benchmark's shape seed (1).
    """
    profiles = ("uniform", "zipf", "normal", "bimodal", "constant")
    rng = random.Random(1)

    def draw(profile: str, kind: str) -> A2AInstance | X2YInstance:
        while True:
            m = rng.randint(12, 48)
            q = rng.choice((60, 80, 100, 120, 150, 200))
            instance: A2AInstance | X2YInstance
            if kind == "a2a":
                instance = A2AInstance(
                    sample_sizes(profile, m, q, seed=rng.randrange(2**31)), q
                )
            else:
                instance = X2YInstance(
                    sample_sizes(profile, m // 2, q, seed=rng.randrange(2**31)),
                    sample_sizes(profile, m - m // 2, q, seed=rng.randrange(2**31)),
                    q,
                )
            try:
                instance.check_feasible()
            except ReproError:
                continue
            return instance

    hot = [draw(profiles[i % 5], "x2y" if i % 3 == 2 else "a2a") for i in range(16)]
    fresh = [draw(profiles[i % 4], "x2y" if i % 3 == 2 else "a2a") for i in range(60)]
    return hot + fresh


def test_service_mix_shapes_match_reference():
    shapes = service_mix_shapes()
    assert len(shapes) == 76
    for instance in shapes:
        if isinstance(instance, A2AInstance):
            assert_same_a2a(instance)
        else:
            assert_same_x2y(instance)
