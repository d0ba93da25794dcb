"""The bitmask schema verifiers against the set-based checks they replaced.

``reference_verify_a2a`` and ``reference_verify_x2y`` below are the earlier
implementations, copied verbatim apart from their names.  On valid and
broken schemas alike (repeated members, overloaded reducers, more uncovered
pairs than a report lists, members in any order) the bitmask verifiers
must return an equal :class:`VerificationReport`, field for field.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import A2AInstance, X2YInstance
from repro.core.schema import A2ASchema, X2YSchema
from repro.core.selector import solve_a2a, solve_x2y
from repro.core.verify import _MAX_REPORTED, VerificationReport, verify_a2a, verify_x2y


def reference_verify_a2a(schema: "A2ASchema") -> VerificationReport:
    """Verify an A2A schema: capacities and all-pairs coverage."""
    instance = schema.instance
    sizes = instance.sizes
    capacity_violations: list[tuple[int, int]] = []
    duplicates: list[tuple[int, object]] = []

    covered: set[int] = set()
    m = instance.m
    for r_index, reducer in enumerate(schema.reducers):
        seen_here: set[int] = set()
        load = 0
        for i in reducer:
            if i in seen_here:
                duplicates.append((r_index, i))
                continue
            seen_here.add(i)
            load += sizes[i]
        if load > instance.q and len(capacity_violations) < _MAX_REPORTED:
            capacity_violations.append((r_index, load))
        members = sorted(seen_here)
        for a_pos, i in enumerate(members):
            base = i * m
            for j in members[a_pos + 1:]:
                covered.add(base + j)

    uncovered: list[tuple[int, int]] = []
    for i, j in instance.pairs():
        if i * m + j not in covered:
            uncovered.append((i, j))
            if len(uncovered) >= _MAX_REPORTED:
                break

    valid = not capacity_violations and not uncovered
    return VerificationReport(
        valid=valid,
        capacity_violations=tuple(capacity_violations),
        uncovered_pairs=tuple(uncovered),
        duplicate_assignments=tuple(duplicates[:_MAX_REPORTED]),
        num_reducers=schema.num_reducers,
    )


def reference_verify_x2y(schema: "X2YSchema") -> VerificationReport:
    """Verify an X2Y schema: capacities and all-cross-pairs coverage."""
    instance = schema.instance
    capacity_violations: list[tuple[int, int]] = []
    duplicates: list[tuple[int, object]] = []

    n = instance.n
    covered: set[int] = set()
    for r_index, (x_part, y_part) in enumerate(schema.reducers):
        load = 0
        x_seen: set[int] = set()
        y_seen: set[int] = set()
        for i in x_part:
            if i in x_seen:
                duplicates.append((r_index, ("x", i)))
                continue
            x_seen.add(i)
            load += instance.x_sizes[i]
        for j in y_part:
            if j in y_seen:
                duplicates.append((r_index, ("y", j)))
                continue
            y_seen.add(j)
            load += instance.y_sizes[j]
        if load > instance.q and len(capacity_violations) < _MAX_REPORTED:
            capacity_violations.append((r_index, load))
        for i in x_seen:
            base = i * n
            for j in y_seen:
                covered.add(base + j)

    uncovered: list[tuple[int, int]] = []
    for i, j in instance.pairs():
        if i * n + j not in covered:
            uncovered.append((i, j))
            if len(uncovered) >= _MAX_REPORTED:
                break

    valid = not capacity_violations and not uncovered
    return VerificationReport(
        valid=valid,
        capacity_violations=tuple(capacity_violations),
        uncovered_pairs=tuple(uncovered),
        duplicate_assignments=tuple(duplicates[:_MAX_REPORTED]),
        num_reducers=schema.num_reducers,
    )


def members(draw, count: int) -> tuple[int, ...]:
    """Up to eight indices below *count*, in any order, repeats allowed."""
    return tuple(draw(st.lists(st.integers(0, count - 1), max_size=8)))


@st.composite
def a2a_schemas(draw) -> A2ASchema:
    """A solver's A2A schema, or random reducers, or a solver's schema with
    reducers dropped and random ones added."""
    q = draw(st.integers(2, 30))
    m = draw(st.integers(1, 30))
    instance = A2AInstance(draw(st.lists(st.integers(1, q), min_size=m, max_size=m)), q)
    reducers: list[tuple[int, ...]] = []
    if instance.is_feasible() and draw(st.booleans()):
        reducers = list(solve_a2a(instance).reducers)
        reducers = reducers[: draw(st.integers(0, len(reducers)))]
    reducers += [members(draw, m) for _ in range(draw(st.integers(0, 12)))]
    return A2ASchema(instance, tuple(draw(st.permutations(reducers))))


@st.composite
def x2y_schemas(draw) -> X2YSchema:
    """The X2Y counterpart of :func:`a2a_schemas`."""
    q = draw(st.integers(2, 30))
    m = draw(st.integers(1, 20))
    n = draw(st.integers(1, 20))
    instance = X2YInstance(
        draw(st.lists(st.integers(1, q), min_size=m, max_size=m)),
        draw(st.lists(st.integers(1, q), min_size=n, max_size=n)),
        q,
    )
    reducers: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if instance.is_feasible() and draw(st.booleans()):
        reducers = list(solve_x2y(instance).reducers)
        reducers = reducers[: draw(st.integers(0, len(reducers)))]
    reducers += [
        (members(draw, m), members(draw, n)) for _ in range(draw(st.integers(0, 12)))
    ]
    return X2YSchema(instance, tuple(draw(st.permutations(reducers))))


@settings(deadline=None, max_examples=300)
@given(a2a_schemas())
def test_verify_a2a_matches_reference(schema):
    assert verify_a2a(schema) == reference_verify_a2a(schema)


@settings(deadline=None, max_examples=300)
@given(x2y_schemas())
def test_verify_x2y_matches_reference(schema):
    assert verify_x2y(schema) == reference_verify_x2y(schema)


def test_reports_cut_at_the_cap():
    instance = A2AInstance([5] * 30, 10)
    schema = A2ASchema(instance, ((0, 0, 1, 2),) * 60)
    report = verify_a2a(schema)
    assert report == reference_verify_a2a(schema)
    assert len(report.uncovered_pairs) == _MAX_REPORTED
    assert len(report.capacity_violations) == _MAX_REPORTED
    assert len(report.duplicate_assignments) == _MAX_REPORTED

    cross = X2YSchema(X2YInstance([5] * 10, [5] * 10, 10), (((1, 1), (2, 0)),) * 60)
    assert verify_x2y(cross) == reference_verify_x2y(cross)
    assert len(verify_x2y(cross).uncovered_pairs) == _MAX_REPORTED
