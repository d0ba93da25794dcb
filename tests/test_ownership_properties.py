"""Property tests (hypothesis) for pair ownership.

A schema may place a pair of inputs at several reducers; the apps emit a
pair only at the reducer that owns it.  Reducer ``r`` owns a pair it holds
iff ``masks[a] & masks[b] & ((1 << r) - 1) == 0`` (a triple: the AND of
three masks).  These tests check that rule against
:func:`canonical_meeting` (the smallest shared reducer) on schemas from
every solver method, that each required pair is owned by exactly one
reducer, and that :func:`owned_partners`, which decides the rule once per
group of inputs with equal masks, yields exactly the pairs (triples) the
per-pair rule picks, in the same order.  The schemas include bin pairings,
where many inputs share a mask, and ``greedy`` / ``exact`` ones, where
few or none do.

:func:`x2y_exact_cover`, which lets the X2Y apps skip the masks, is
checked against a count of held pairs.

The last tests pin every mask-taking app's outputs, in order, against a
per-pair reference reducer kept here: the engine cross-validation runs
the app's own reducer on both sides, so it cannot see an order change.
The X2Y apps are pinned on schemas that hold each pair once (no masks)
and on schemas that hold some pair twice (masks).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import combinations
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.common_friends import run_common_friends
from repro.apps.similarity_join import run_similarity_join
from repro.apps.skew_join import _skew_join_engine, schema_skew_join
from repro.apps.tensor_product import distributed_outer_product
from repro.apps.threeway_similarity import run_threeway_similarity, triple_jaccard
from repro.core.instance import A2AInstance, X2YInstance
from repro.core.multiway import MultiwayInstance, MultiwaySchema
from repro.core.schema import A2ASchema
from repro.core.selector import A2A_METHODS, X2Y_METHODS, solve_a2a, solve_x2y
from repro.engine.config import ExecutionConfig
from repro.engine.engine import execute_schema
from repro.engine.routing import (
    a2a_memberships,
    a2a_reducer_masks,
    canonical_meeting,
    owned_partners,
    x2y_exact_cover,
    x2y_memberships,
    x2y_reducer_masks,
)
from repro.exceptions import ReproError
from repro.planner.planner import MULTIWAY_METHODS
from repro.workloads.documents import generate_documents, set_jaccard
from repro.workloads.relations import generate_join_workload
from repro.workloads.social import common_friends, generate_users
from repro.workloads.vectors import generate_block_vector

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


@st.composite
def multiway_schemas(draw):
    """A multiway (r = 3) schema: a registered method's on a feasible
    instance, or one reducer per triple (no two inputs share a mask)."""
    q = draw(st.integers(6, 30))
    m = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(1, q // 3), min_size=m, max_size=m))
    instance = MultiwayInstance(sizes, q, 3)
    if m >= 3 and draw(st.booleans()):
        return MultiwaySchema.from_lists(
            instance, list(combinations(range(m), 3)), algorithm="triples"
        )
    method = draw(st.sampled_from(sorted(MULTIWAY_METHODS)))
    return MULTIWAY_METHODS[method](instance)


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


def owns(r, *masks):
    common = (1 << r) - 1
    for mask in masks:
        common &= mask
    return common == 0


def helper_tuples(r, held, **options):
    """The owned tuples :func:`owned_partners` yields, flattened."""
    return [
        (*prefix, partner)
        for *prefix, partners in owned_partners(r, held, **options)
        for partner in partners
    ]


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
            held = sorted(members)
            picked = []
            for a, b in combinations(held, 2):
                canonical = canonical_meeting(memberships[a], memberships[b])
                assert owns(r, masks[a], masks[b]) == (canonical == r)
                if owns(r, masks[a], masks[b]):
                    picked.append((a, b))
                    owned[(a, b)] += 1
            assert helper_tuples(r, [(masks[i], i) for i in held]) == picked
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
            picked = []
            for i in x_part:
                for j in y_part:
                    canonical = canonical_meeting(x_members[i], y_members[j])
                    assert owns(r, x_masks[i], y_masks[j]) == (canonical == r)
                    if owns(r, x_masks[i], y_masks[j]):
                        picked.append((i, j))
                        owned[(i, j)] += 1
            assert helper_tuples(
                r,
                [(x_masks[i], i) for i in x_part],
                across=[(y_masks[j], j) for j in y_part],
            ) == picked
        required = {(i, j) for i in range(instance.m) for j in range(instance.n)}
        assert set(owned) == required
        assert all(count == 1 for count in owned.values())


#: The X2Y methods whose schemas hold every cross pair exactly once.
GRID_FAMILY = ("equal_grid", "half_grid", "best_split_grid", "big_small")


@settings(deadline=None)
@given(x2y_instances())
def test_exact_cover_predicate_counts_held_pairs(instance):
    """:func:`x2y_exact_cover` holds for every grid-family schema and, on
    any valid schema, exactly when no cross pair is held twice; repeating
    a grid reducer makes it false."""
    for method in X2Y_METHODS:
        if method == "exact" and instance.m + instance.n > EXACT_MAX_INPUTS:
            continue
        try:
            schema = solve_x2y(instance, method)
        except ReproError:
            continue  # the method does not handle this instance shape
        held = Counter(
            (i, j) for xs, ys in schema.reducers for i in xs for j in ys
        )
        assert len(held) == instance.m * instance.n
        assert x2y_exact_cover(schema) == (max(held.values()) == 1)
        if method in GRID_FAMILY:
            assert x2y_exact_cover(schema)
            doubled = replace(
                schema, reducers=schema.reducers + schema.reducers[:1]
            )
            assert doubled.verify().valid
            assert not x2y_exact_cover(doubled)


@settings(deadline=None)
@given(multiway_schemas())
def test_multiway_owned_triples_match_the_mask_rule(schema):
    masks = a2a_reducer_masks(schema)
    memberships = a2a_memberships(schema)
    owned = Counter()
    for r, members in enumerate(schema.reducers):
        held = sorted(members)
        picked = [
            triple
            for triple in combinations(held, 3)
            if owns(r, *(masks[i] for i in triple))
        ]
        for triple in picked:
            owned[triple] += 1
            shared = set(memberships[triple[0]])
            shared &= set(memberships[triple[1]]) & set(memberships[triple[2]])
            assert min(shared) == r
        assert helper_tuples(r, [(masks[i], i) for i in held], width=3) == picked
    assert set(owned) == set(combinations(range(schema.instance.m), 3))
    assert all(count == 1 for count in owned.values())


@pytest.mark.parametrize(
    "layout, distinct_masks", [("bin_pairing", 6), ("one_per_pair", 12)]
)
def test_every_pair_owned_once_with_shared_and_distinct_masks(
    layout, distinct_masks
):
    """A bin pairing's reducers hold two groups of equal masks each (one
    mask per bin); one reducer per pair gives every input its own mask.
    Either way the helper yields each pair exactly once."""
    instance = A2AInstance([1] * 12, 4)
    if layout == "bin_pairing":
        schema = solve_a2a(instance, "bin_pairing")
    else:
        schema = A2ASchema.from_lists(instance, combinations(range(12), 2))
    masks = a2a_reducer_masks(schema)
    assert len(set(masks)) == distinct_masks
    pairs = Counter()
    for r, members in enumerate(schema.reducers):
        pairs.update(helper_tuples(r, [(masks[i], i) for i in members]))
    assert pairs == Counter(combinations(range(12), 2))


def test_masks_set_one_bit_per_membership():
    schema = solve_a2a(A2AInstance([3, 5, 2, 7, 4], q=12))
    masks = a2a_reducer_masks(schema)
    for i, reducers in enumerate(a2a_memberships(schema)):
        assert masks[i] == sum(1 << r for r in reducers)


# -- per-pair reference reducers: the loops the apps ran before the helper


def _reference_similarity(key, values, *, masks, threshold):
    held = sorted(values, key=itemgetter(0))
    for a_pos, (i, doc_a) in enumerate(held):
        for j, doc_b in held[a_pos + 1 :]:
            if owns(key, masks[i], masks[j]):
                similarity = set_jaccard(set(doc_a.tokens), set(doc_b.tokens))
                if similarity >= threshold:
                    yield (doc_a.doc_id, doc_b.doc_id, similarity)


def _reference_common_friends(key, values, *, masks):
    held = sorted(values, key=itemgetter(0))
    for a_pos, (i, user_a) in enumerate(held):
        for j, user_b in held[a_pos + 1 :]:
            if owns(key, masks[i], masks[j]):
                yield (user_a.user_id, user_b.user_id, common_friends(user_a, user_b))


def _reference_threeway(key, values, *, masks, threshold):
    held = sorted(values, key=itemgetter(0))
    for (i, a), (j, b), (k, c) in combinations(held, 3):
        if owns(key, masks[i], masks[j], masks[k]):
            similarity = triple_jaccard(a, b, c)
            if similarity >= threshold:
                yield (a.doc_id, b.doc_id, c.doc_id, similarity)


def _reference_outer_product(key, values, *, masks):
    x_masks, y_masks = masks
    for side, i, ub in values:
        if side != "x":
            continue
        for other, j, vb in values:
            if other == "y" and owns(key, x_masks[i], y_masks[j]):
                for a, u_val in enumerate(ub.values):
                    for b, v_val in enumerate(vb.values):
                        yield (ub.offset + a, vb.offset + b, u_val * v_val)


def _reference_skew(reducer, values, *, owners, masks):
    join_key, r = owners[reducer]
    x_masks, y_masks = masks.get(join_key, ((), ()))
    xs = [v for _, v in values if v[0] == "x"]
    ys = [v for _, v in values if v[0] == "y"]
    for tx in xs:
        for ty in ys:
            if r is None or owns(r, x_masks[tx[1]], y_masks[ty[1]]):
                yield (tx[3], join_key, ty[3])


CONFIGS = [
    ExecutionConfig(),
    ExecutionConfig(num_reduce_tasks=3, memory_budget=8),
    ExecutionConfig(backend="processes", num_workers=2, num_reduce_tasks=3),
]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("method", ["bin_pairing", "big_small", "greedy"])
def test_similarity_join_matches_per_pair_reference(method, config):
    documents = generate_documents(30, 40, seed=7)
    run = run_similarity_join(documents, 40, 0.0, method=method, config=config)
    reference = execute_schema(
        run.schema,
        documents,
        partial(
            _reference_similarity,
            masks=a2a_reducer_masks(run.schema),
            threshold=0.0,
        ),
        config=config,
    )
    assert len(run.pairs) == 435
    assert run.pairs == tuple(reference.outputs)
    assert run.metrics == reference.metrics


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("method", ["bin_pairing", "greedy"])
def test_common_friends_matches_per_pair_reference(method, config):
    users = generate_users(20, 40, seed=4)
    run = run_common_friends(users, 40, method=method, config=config)
    reference = execute_schema(
        run.schema,
        users,
        partial(_reference_common_friends, masks=a2a_reducer_masks(run.schema)),
        config=config,
    )
    assert run.pairs == tuple(reference.outputs)
    assert run.metrics == reference.metrics


def test_threeway_similarity_matches_per_triple_reference():
    documents = generate_documents(14, 30, seed=3)
    run = run_threeway_similarity(documents, 30, 0.0)
    reference = execute_schema(
        run.schema,
        documents,
        partial(
            _reference_threeway,
            masks=a2a_reducer_masks(run.schema),
            threshold=0.0,
        ),
    )
    assert len(run.triples) == 364
    assert run.triples == tuple(reference.outputs)
    assert run.metrics == reference.metrics


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("method", ["best_split_grid", "greedy"])
def test_outer_product_matches_per_pair_reference(method, config):
    """The grid holds each pair once, so its reducers skip the masks;
    greedy's schema holds some pair twice and keeps them."""
    u = generate_block_vector("u", 8, 20, profile="zipf", seed=1)
    v = generate_block_vector("v", 6, 20, seed=2)
    run = distributed_outer_product(u, v, 20, method=method, config=config)
    assert x2y_exact_cover(run.schema) == (method == "best_split_grid")
    reference = execute_schema(
        run.schema,
        (u.blocks, v.blocks),
        partial(_reference_outer_product, masks=x2y_reducer_masks(run.schema)),
        config=config,
    )
    assert run.entries == tuple(reference.outputs)
    assert run.metrics == reference.metrics


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("method", ["auto", "greedy"])
def test_skew_join_matches_per_pair_reference(method, config):
    """The reference tests every held pair against the masks of every
    heavy key.  The grids of ``auto`` hold each pair once, so the app
    builds no masks; ``greedy`` gives both kinds of schema in one join."""
    x, y = generate_join_workload(240, 240, 8, 1.3, seed=5, size_jitter=2)
    run = schema_skew_join(x, y, 30, method=method, config=config)
    engine = _skew_join_engine(
        x, y, 30, run.heavy_keys, run.schemas, config=config
    )
    covers = {x2y_exact_cover(schema) for schema in run.schemas.values()}
    assert covers == ({True} if method == "auto" else {True, False})
    reference = replace(
        engine,
        reduce_fn=partial(
            _reference_skew,
            owners=engine.reduce_fn.keywords["owners"],
            masks={
                key: x2y_reducer_masks(schema)
                for key, schema in run.schemas.items()
            },
        ),
    ).run()
    assert run.heavy_keys
    assert run.triples == tuple(reference.outputs)
    assert run.metrics == reference.metrics


@pytest.mark.parametrize("config", CONFIGS)
def test_skew_join_on_a_schema_holding_pairs_twice(config):
    """A hand-built overlap: each heavy key's grid with its first reducer
    repeated at the end.  The app keeps the masks for it, and every pair
    is still emitted once, in the per-pair reference's order."""
    x, y = generate_join_workload(240, 240, 8, 1.3, seed=5, size_jitter=2)
    run = schema_skew_join(x, y, 30, config=config)
    doubled = {
        key: replace(schema, reducers=schema.reducers + schema.reducers[:1])
        for key, schema in run.schemas.items()
    }
    assert not any(map(x2y_exact_cover, doubled.values()))
    engine = _skew_join_engine(x, y, 30, run.heavy_keys, doubled, config=config)
    assert set(engine.reduce_fn.keywords["masks"]) == set(doubled)
    reference = replace(
        engine, reduce_fn=partial(_reference_skew, **engine.reduce_fn.keywords)
    ).run()
    result = engine.run()
    assert result.outputs == reference.outputs
    assert sorted(result.outputs) == sorted(run.triples)
