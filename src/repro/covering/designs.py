"""Pair-covering designs: cover all pairs of t points with blocks of size s.

The equal-sized grouping scheme assigns *two* groups per reducer, but when
``k = q // w`` is large a reducer can host ``s = k // g`` groups of size
``g`` — and then the reducers needed are exactly a *covering design*
C(t, 2, s): a family of s-element blocks over t points such that every
pair of points lies in some block.  Good designs cut the reducer count
from ``C(t,2)`` toward the Schönheim bound ``~C(t,2)/C(s,2)``.

This module provides:

* :func:`schonheim_lower_bound` — the classic covering-number bound;
* :func:`steiner_triple_system` — *exact* optimal designs for s = 3 when
  ``t ≡ 3 (mod 6)`` (the Bose construction);
* :func:`bin_quads` — a recursive transversal-design cover with blocks of
  at most four points, for any t, and :func:`bin_quad_counts`, its block
  count and per-point replication without the blocks;
* :func:`greedy_pair_cover` — a general greedy design for any (t, s);
* :func:`pair_cover` — front door picking the best available construction.
"""

from __future__ import annotations

from math import ceil, isqrt

from repro.exceptions import InvalidInstanceError


def schonheim_lower_bound(t: int, s: int) -> int:
    """The Schönheim bound on the pair-covering number C(t, 2, s).

    ``C(t, 2, s) >= ceil(t/s * ceil((t-1)/(s-1)))``; for s = 3 and
    ``t ≡ 1, 3 (mod 6)`` it is met exactly by Steiner triple systems.
    """
    if t < 2:
        return 0 if t < 2 else 1
    if s < 2:
        raise InvalidInstanceError(f"block size must be >= 2, got {s}")
    if s >= t:
        return 1
    return ceil(t / s * ceil((t - 1) / (s - 1)))


def validate_pair_cover(t: int, blocks: list[tuple[int, ...]], s: int | None = None) -> None:
    """Assert *blocks* covers every pair of ``range(t)`` within block size.

    Raises :class:`AssertionError` on violation; used by tests and by the
    constructions' self-checks.
    """
    covered: set[tuple[int, int]] = set()
    for block in blocks:
        assert len(set(block)) == len(block), f"duplicate point in block {block}"
        if s is not None:
            assert len(block) <= s, f"block {block} exceeds size {s}"
        for i_pos, i in enumerate(sorted(block)):
            for j in sorted(block)[i_pos + 1:]:
                covered.add((i, j))
        for point in block:
            assert 0 <= point < t, f"point {point} out of range"
    required = {(i, j) for i in range(t) for j in range(i + 1, t)}
    missing = required - covered
    assert not missing, f"{len(missing)} pairs uncovered, e.g. {next(iter(missing))}"


def steiner_triple_system(t: int) -> list[tuple[int, int, int]]:
    """An exact Steiner triple system on t points (every pair in ONE triple).

    The **Bose** construction for ``t = 6n + 3``: points are
    ``Z_{2n+1} x {0,1,2}``, numbered ``(i, r) -> 3i + r``; the triples are
    ``{(i,0),(i,1),(i,2)}`` and, for ``i < j``,
    ``{(i,r),(j,r),((i+j)*(n+1) mod 2n+1, r+1 mod 3)}``.  Each triple is
    returned sorted.

    Raises :class:`InvalidInstanceError` when ``t`` is not ``≡ 3 (mod 6)``.
    Systems also exist for ``t ≡ 1 (mod 6)`` (Skolem), but none is
    constructed here; callers fall back to :func:`greedy_pair_cover`.
    """
    if t % 6 != 3:
        raise InvalidInstanceError(
            f"exact STS construction implemented for t = 6n+3 only, got t={t}"
        )
    n = (t - 3) // 6
    modulus = 2 * n + 1
    half = n + 1  # multiplicative inverse of 2 modulo 2n+1

    triples: list[tuple[int, int, int]] = [
        (3 * i, 3 * i + 1, 3 * i + 2) for i in range(modulus)
    ]
    append = triples.append
    for i in range(modulus):
        a = 3 * i
        for j in range(i + 1, modulus):
            b = 3 * j
            c = 3 * (((i + j) * half) % modulus)
            # k = (i+j)/2 differs from i and j, so its points sort before
            # both, between them, or after both, alike in all three rows;
            # rows r = 0, 1, 2 meet row r + 1 of group k.
            if c < a:
                append((c + 1, a, b))
                append((c + 2, a + 1, b + 1))
                append((c, a + 2, b + 2))
            elif c < b:
                append((a, c + 1, b))
                append((a + 1, c + 2, b + 1))
                append((a + 2, c, b + 2))
            else:
                append((a, b, c + 1))
                append((a + 1, b + 1, c + 2))
                append((a + 2, b + 2, c))
    return triples


def bin_quads(num_bins: int) -> list[tuple[int, ...]]:
    """Cover every pair of ``range(num_bins)`` with blocks of 2 to 4 points.

    A recursive transversal-design construction.  For ``b > 4`` points,
    let ``p`` be the smallest prime ``>= max(3, ceil(b / 4))`` and cut
    the points, in order, into four groups of at most ``p``.  For every
    ``(x, y)`` in ``Z_p^2`` one block takes position ``x`` of group 0,
    ``y`` of group 1, ``x + y`` of group 2 and ``x + 2y`` of group 3, all
    mod ``p``, skipping positions past a short group; blocks with fewer
    than two points are dropped.  Any two of the four positions fix
    ``(x, y)`` (``p`` is an odd prime, so 2 is invertible), so every pair
    of points in different groups meets in exactly one block.  Each group
    is then covered the same way; a group of two to four points is one
    block.  A pair in one group meets in no top-level block, so every pair
    meets in exactly one block overall.  ``b <= 4`` points form a single
    block.

    Each block is returned sorted: top-level blocks come first, in
    ``(x, y)`` order, then each group's cover in group order.
    """
    if num_bins < 1:
        raise InvalidInstanceError(f"num_bins must be >= 1, got {num_bins}")
    if num_bins <= 4:
        return [tuple(range(num_bins))]
    blocks: list[tuple[int, ...]] = []
    _transversal_cover(range(num_bins), blocks)
    return blocks


def bin_quad_counts(num_bins: int) -> tuple[int, list[int]]:
    """How many blocks :func:`bin_quads` returns and how many hold each point.

    Counts without building the blocks.  When the first two groups are
    full (``b >= 2p``) every ``(x, y)`` block keeps at least two points,
    so the top level has ``p * p`` blocks and each point lies in ``p`` of
    them (its group's position fixes one linear form in ``(x, y)``); the
    groups then add their own counts.  Only a short cover of under ``2p``
    points, which occurs for few points only, is counted from its blocks.
    """
    if num_bins < 1:
        raise InvalidInstanceError(f"num_bins must be >= 1, got {num_bins}")
    if num_bins <= 4:
        return 1, [1] * num_bins
    p = _group_prime(num_bins)
    if num_bins < 2 * p:
        blocks = bin_quads(num_bins)
        held = [0] * num_bins
        for block in blocks:
            for point in block:
                held[point] += 1
        return len(blocks), held
    count, held = p * p, [p] * num_bins
    for start in range(0, num_bins, p):
        size = min(p, num_bins - start)
        if size > 1:
            inner, inner_held = bin_quad_counts(size)
            count += inner
            held[start:start + size] = [h + p for h in inner_held]
    return count, held


def _transversal_cover(points: range, blocks: list[tuple[int, ...]]) -> None:
    """Append the :func:`bin_quads` blocks over *points* (more than 4)."""
    p = _group_prime(len(points))
    groups = [points[g * p:(g + 1) * p] for g in range(4)]
    # Column g holds group g's points as 1-tuples, padded with () to p
    # slots and repeated so that x + y and x + 2y index without a mod.
    empty: tuple[int, ...] = ()
    col0, col1, col2, col3 = (
        [(point,) for point in group] + [empty] * (p - len(group))
        for group in groups
    )
    col2 = col2 * 2
    col3 = col3 * 3
    append = blocks.append
    for x in range(p):
        head = col0[x]
        for second, third, fourth in zip(col1, col2[x:], col3[x::2]):
            block = head + second + third + fourth
            if len(block) > 1:
                append(block)
    for group in groups:
        if len(group) > 4:
            _transversal_cover(group, blocks)
        elif len(group) > 1:
            append(tuple(group))


def _group_prime(num_points: int) -> int:
    """The :func:`bin_quads` group size for *num_points*: the smallest
    prime ``>= max(3, ceil(num_points / 4))``."""
    n = max(3, -(-num_points // 4))
    while any(n % d == 0 for d in range(2, isqrt(n) + 1)):
        n += 1
    return n


def greedy_pair_cover(t: int, s: int) -> list[tuple[int, ...]]:
    """Greedy covering design: repeatedly build the block covering most pairs.

    Guarantees a valid cover for any ``t >= 2, s >= 2``; quality is within
    a logarithmic factor of optimal (the classic set-cover bound), which is
    ample for the grouped-covering reducer scheme.
    """
    if t < 1:
        raise InvalidInstanceError(f"t must be >= 1, got {t}")
    if s < 2:
        raise InvalidInstanceError(f"block size must be >= 2, got {s}")
    if t == 1:
        return [(0,)]
    if s >= t:
        return [tuple(range(t))]

    uncovered: set[tuple[int, int]] = {
        (i, j) for i in range(t) for j in range(i + 1, t)
    }
    degree = [t - 1] * t
    blocks: list[tuple[int, ...]] = []
    while uncovered:
        # Seed with the uncovered pair of max joint degree.
        seed = max(uncovered, key=lambda p: degree[p[0]] + degree[p[1]])
        block = {seed[0], seed[1]}
        while len(block) < s:
            best_point = -1
            best_gain = 0
            for candidate in range(t):
                if candidate in block:
                    continue
                gain = sum(
                    1
                    for member in block
                    if (min(candidate, member), max(candidate, member)) in uncovered
                )
                if gain > best_gain:
                    best_gain = gain
                    best_point = candidate
            if best_point < 0:
                break
            block.add(best_point)
        ordered = tuple(sorted(block))
        blocks.append(ordered)
        for i_pos, i in enumerate(ordered):
            for j in ordered[i_pos + 1:]:
                if (i, j) in uncovered:
                    uncovered.discard((i, j))
                    degree[i] -= 1
                    degree[j] -= 1
    return blocks


def pair_cover(t: int, s: int) -> list[tuple[int, ...]]:
    """Best available pair cover of t points with blocks of size <= s.

    Uses the exact Steiner construction when ``s == 3`` and ``t ≡ 3 (mod 6)``
    and the greedy design otherwise.
    """
    if s == 3 and t % 6 == 3:
        return [tuple(b) for b in steiner_triple_system(t)]
    return greedy_pair_cover(t, s)
