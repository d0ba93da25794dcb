"""One-call facade: pick a mapping-schema algorithm from instance shape.

``solve_a2a`` and ``solve_x2y`` are the library's front doors.  With
``method="auto"`` they dispatch on the structure the paper's algorithms
key on — uniform sizes, presence of big inputs.  That structural
heuristic now lives in :mod:`repro.planner.fastpath` (it is the
cost-based planner's fast path); these functions are thin compatibility
wrappers over it, so the planner and the historical API cannot drift.
Named methods are looked up in the registries below, so experiments can
sweep algorithms uniformly.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.core.a2a import (
    big_small,
    equal_sized_grouping,
    ffd_pairing,
    greedy_cover,
    grouped_covering,
    quad_bins,
    solve_min_reducers,
    triple_bins,
)
from repro.core.instance import A2AInstance, X2YInstance
from repro.core.schema import A2ASchema, X2YSchema
from repro.exceptions import UnknownMethodError
from repro.core.x2y import (
    Costs,
    best_split_grid,
    best_split_grid_costs,
    big_small_x2y,
    big_small_x2y_costs,
    equal_sized_grid,
    equal_sized_grid_costs,
    greedy_cover_x2y,
    half_split_grid,
    half_split_grid_costs,
    solve_min_reducers_x2y,
)

#: Name -> callable registries; the benches iterate these.
A2A_METHODS = {
    "equal_grouping": equal_sized_grouping,
    "grouped_covering": grouped_covering,
    "bin_pairing": ffd_pairing,
    "triple_bins": triple_bins,
    "quad_bins": quad_bins,
    "big_small": big_small,
    "greedy": greedy_cover,
    "exact": solve_min_reducers,
}

X2Y_METHODS = {
    "equal_grid": equal_sized_grid,
    "half_grid": half_split_grid,
    "best_split_grid": best_split_grid,
    "big_small": big_small_x2y,
    "greedy": greedy_cover_x2y,
    "exact": solve_min_reducers_x2y,
}

#: X2Y methods whose ``(reducers, communication, max_load)`` can be
#: counted without building the schema (``None`` when the method must be
#: built after all); each raises what its builder raises.
X2Y_COSTS: dict[str, Callable[[X2YInstance], Costs | None]] = {
    "equal_grid": equal_sized_grid_costs,
    "half_grid": half_split_grid_costs,
    "best_split_grid": best_split_grid_costs,
    "big_small": big_small_x2y_costs,
}


def require_method(kind: str, method: str, registry: Mapping[str, object]) -> None:
    """Raise :class:`UnknownMethodError` unless *method* is registered.

    The single place the "unknown method" message is built, so every
    front door (``solve_a2a``/``solve_x2y``, the planner, the CLI) lists
    the valid method names the same way instead of echoing the bad name
    with no hint.
    """
    if method not in registry:
        raise UnknownMethodError(
            f"unknown {kind} method {method!r}; choose from "
            f"{sorted(registry)} or 'auto'"
        )


def solve_a2a(instance: A2AInstance, method: str = "auto") -> A2ASchema:
    """Build a mapping schema for an A2A instance.

    ``method="auto"`` picks: for uniform sizes, the better of the plain
    grouping scheme and the covering-design scheme; the big/small scheme
    when some input exceeds ``q // 2``; otherwise the bin-pairing scheme,
    replaced by the triple-bin scheme when every input fits ``q // 3``
    and it is predicted no worse on reducers and communication, and that
    choice by the quadruple-bin scheme when every input fits ``q // 4``
    and it is predicted no worse than the choice on both counts (the
    planner's fast path — see
    :func:`repro.planner.fastpath.fast_path_a2a`).  Named methods come
    from :data:`A2A_METHODS`.
    """
    instance.check_feasible()
    if method == "auto":
        # Imported lazily: the planner package imports these registries.
        from repro.planner.fastpath import fast_path_a2a

        chosen, considered, _, _ = fast_path_a2a(instance)
        return considered[chosen]
    require_method("A2A", method, A2A_METHODS)
    return A2A_METHODS[method](instance)


def solve_x2y(instance: X2YInstance, method: str = "auto") -> X2YSchema:
    """Build a mapping schema for an X2Y instance.

    ``method="auto"`` picks: the equal-sized grid when both sides are
    uniform; otherwise the best-split grid, except that when big inputs
    (> q // 2) are present it builds both the best-split grid and the
    big/small scheme and keeps whichever uses fewer reducers.  (A feasible
    instance can only have big inputs on *one* side: two inputs above q/2
    that must meet would exceed the capacity.)  Named methods come from
    :data:`X2Y_METHODS`.
    """
    instance.check_feasible()
    if method == "auto":
        from repro.planner.fastpath import fast_path_x2y

        chosen, considered, _, _ = fast_path_x2y(instance)
        return considered[chosen]
    require_method("X2Y", method, X2Y_METHODS)
    return X2Y_METHODS[method](instance)
