"""Exact minimum-reducer solver for small X2Y instances.

Mirrors :mod:`repro.core.a2a.exact`: iterative deepening on the reducer
budget with depth-first covering of cross pairs, used as ground truth in
the E9 optimality-gap experiment.  The X2Y problem is NP-complete, so this
is only tractable for roughly ``m * n <= 15`` pairs; from about 16 pairs
some instances exhaust the node budget after seconds (e.g.
``X2YInstance([1, 3], [1] * 12, 6)``, 24 pairs).
"""

from __future__ import annotations

from repro.core.bounds import x2y_reducer_lower_bound
from repro.core.instance import X2YInstance
from repro.core.schema import X2YSchema
from repro.exceptions import SolverLimitError


def solve_min_reducers_x2y(
    instance: X2YInstance,
    *,
    max_nodes: int = 500_000,
    max_reducers: int | None = None,
) -> X2YSchema:
    """Return a schema with the provably minimum number of reducers.

    Raises :class:`SolverLimitError` on node-budget exhaustion and
    :class:`repro.exceptions.InfeasibleInstanceError` for infeasible
    instances.
    """
    instance.check_feasible()
    xs, ys = instance.x_sizes, instance.y_sizes
    q = instance.q
    all_pairs = sorted(
        instance.pairs(), key=lambda p: xs[p[0]] + ys[p[1]], reverse=True
    )
    lower = x2y_reducer_lower_bound(instance)
    ceiling = max_reducers if max_reducers is not None else len(all_pairs)
    nodes = 0

    def search(
        pair_pos: int,
        x_members: list[set[int]],
        y_members: list[set[int]],
        loads: list[int],
        budget: int,
    ) -> list[tuple[set[int], set[int]]] | None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise SolverLimitError(
                f"X2Y exact solver exceeded {max_nodes} nodes at "
                f"m={instance.m}, n={instance.n}"
            )
        while pair_pos < len(all_pairs):
            i, j = all_pairs[pair_pos]
            if any(i in xm and j in ym for xm, ym in zip(x_members, y_members)):
                pair_pos += 1
            else:
                break
        if pair_pos == len(all_pairs):
            return [(set(xm), set(ym)) for xm, ym in zip(x_members, y_members)]
        i, j = all_pairs[pair_pos]

        seen_signatures: set[tuple[int, frozenset[int], frozenset[int]]] = set()
        for r in range(len(loads)):
            has_i, has_j = i in x_members[r], j in y_members[r]
            extra = (0 if has_i else xs[i]) + (0 if has_j else ys[j])
            if loads[r] + extra > q:
                continue
            signature = (loads[r], frozenset(x_members[r]), frozenset(y_members[r]))
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            if not has_i:
                x_members[r].add(i)
            if not has_j:
                y_members[r].add(j)
            loads[r] += extra
            result = search(pair_pos + 1, x_members, y_members, loads, budget)
            loads[r] -= extra
            if not has_i:
                x_members[r].discard(i)
            if not has_j:
                y_members[r].discard(j)
            if result is not None:
                return result

        if budget > 0:
            x_members.append({i})
            y_members.append({j})
            loads.append(xs[i] + ys[j])
            result = search(pair_pos + 1, x_members, y_members, loads, budget - 1)
            x_members.pop()
            y_members.pop()
            loads.pop()
            if result is not None:
                return result
        return None

    for target in range(max(1, lower), ceiling + 1):
        solution = search(0, [], [], [], target)
        if solution is not None:
            return X2YSchema.from_lists(
                instance,
                [(sorted(xm), sorted(ym)) for xm, ym in solution],
                algorithm="exact",
            )
    raise SolverLimitError(
        f"no X2Y schema found within the reducer ceiling {ceiling}"
    )
