"""The planner's fast path: structural method choice without cost sweeps.

This is the paper's dispatch heuristic — previously the body of
``solve_a2a(..., method="auto")`` / ``solve_x2y(..., method="auto")`` in
:mod:`repro.core.selector` — reimplemented as a planner stage that also
reports *which* candidates it compared and *why* it chose, so a fast-path
:class:`~repro.planner.plan.Plan` is as inspectable as a fully enumerated
one.  The selector keeps ``method="auto"`` as a thin compatibility
wrapper over these functions, so the historical choice is pinned in one
place.

The rules, keyed on instance structure exactly as the paper presents the
algorithms:

* **A2A** — uniform sizes: the better of the plain grouping scheme and
  the covering-design scheme (only the plain scheme when the covering
  scheme raises :class:`~repro.exceptions.SolverLimitError`); any input
  above ``q // 2``: the big/small scheme.  Otherwise one of three bin
  schemes, compared on reducer and communication counts predicted from
  FFD bin loads (no member lists): bin-pairing; the triple-bin scheme
  instead when every input fits ``q // 3`` and it is no worse than
  bin-pairing on both counts; and the quadruple-bin scheme instead of
  that choice when every input fits ``q // 4`` and it is no worse than
  the choice on both counts.  Only the winner is built; the losers are
  reported skipped with their predicted counts, or with the size that
  rules them out.
* **X2Y** — uniform on both sides: the equal-sized grid; big inputs
  present: the better of the big/small scheme and the best-split grid;
  otherwise the best-split grid.
* **Multiway** — the bin-combining scheme (the only registered method).

Ties between compared candidates keep the first listed method, matching
the historical ``min()`` behavior; among the bin schemes the later one
(triple over pairing, quadruple over the choice before it) wins its ties.
"""

from __future__ import annotations

from typing import Any

from repro.binpack.ffd import decreasing_runs, ffd_bin_count, ffd_bin_loads
from repro.core.a2a import (
    big_small,
    equal_sized_grouping,
    ffd_pairing,
    grouped_covering,
)
from repro.core.a2a.quad_bins import quad_bin_costs
from repro.core.a2a.triple_bins import triple_bin_costs
from repro.core.instance import A2AInstance, X2YInstance
from repro.core.multiway import MultiwayInstance, multiway_bin_combining
from repro.core.selector import A2A_METHODS
from repro.core.x2y import best_split_grid, big_small_x2y, equal_sized_grid
from repro.exceptions import SolverLimitError


#: A fast-path decision: chosen registry method name, the schemas of every
#: candidate the rule built (name -> schema, in comparison order), a
#: one-line statement of the structural rule that fired, and the
#: candidates the rule weighed without building (name -> reason).
FastPathChoice = tuple[str, dict[str, Any], str, dict[str, str]]


def fast_path_a2a(instance: A2AInstance) -> FastPathChoice:
    """Structural A2A dispatch (see the module docstring for the rules)."""
    if len(set(instance.sizes)) == 1:
        considered = {"equal_grouping": equal_sized_grouping(instance)}
        try:
            considered["grouped_covering"] = grouped_covering(instance)
        except SolverLimitError:
            pass
        chosen = min(considered, key=lambda name: considered[name].num_reducers)
        return (
            chosen,
            considered,
            "uniform sizes: better of plain grouping and covering design",
            {},
        )
    half = instance.q // 2
    if any(w > half for w in instance.sizes):
        return (
            "big_small",
            {"big_small": big_small(instance)},
            f"big inputs present (> q//2 = {half}): big/small scheme",
            {},
        )
    runs = decreasing_runs(instance.sizes)
    largest = runs[0][0]
    third = instance.q // 3
    quarter = instance.q // 4
    if largest > third:
        return (
            "bin_pairing",
            {"bin_pairing": ffd_pairing(instance)},
            "mixed sizes, no big inputs: bin-pairing scheme",
            {
                "triple_bins": f"an input exceeds q//3 = {third}",
                "quad_bins": f"an input exceeds q//4 = {quarter}",
            },
        )
    # Each of the b >= 2 half-capacity bins meets the other b - 1 once.
    pairs = ffd_bin_count(runs, half)
    predicted = {
        "bin_pairing": (
            (pairs * (pairs - 1) // 2, (pairs - 1) * instance.total_size)
            if pairs > 1
            else (1, instance.total_size)
        ),
        "triple_bins": triple_bin_costs(ffd_bin_loads(runs, third)),
    }
    skipped: dict[str, str] = {}
    if largest > quarter:
        skipped["quad_bins"] = f"an input exceeds q//4 = {quarter}"
    else:
        predicted["quad_bins"] = quad_bin_costs(ffd_bin_loads(runs, quarter))
    # Each later scheme replaces the choice so far only when it is no
    # worse on both counts.
    chosen = "bin_pairing"
    for name, costs in predicted.items():
        if costs[0] <= predicted[chosen][0] and costs[1] <= predicted[chosen][1]:
            chosen = name
    losers = {
        name: _predicted(costs)
        for name, costs in predicted.items()
        if name != chosen
    }
    return (
        chosen,
        {chosen: A2A_METHODS[chosen](instance)},
        f"mixed sizes, no big inputs: {_BIN_SCHEMES[chosen]}; triple "
        "and quadruple bins each replace the choice before them only when "
        "no worse on reducers and communication",
        {**losers, **skipped},
    )


#: The rule's name for each bin scheme the fast path compares.
_BIN_SCHEMES = {
    "bin_pairing": "bin-pairing scheme",
    "triple_bins": "triple-bin scheme",
    "quad_bins": "quadruple-bin scheme",
}


def _predicted(costs: tuple[int, int]) -> str:
    """The skip reason of a candidate the fast path counted but did not
    build."""
    return (
        f"predicted {costs[0]} reducers, communication {costs[1]}; "
        "not built"
    )


def fast_path_x2y(instance: X2YInstance) -> FastPathChoice:
    """Structural X2Y dispatch (the historical ``method="auto"`` choice)."""
    if len(set(instance.x_sizes)) == 1 and len(set(instance.y_sizes)) == 1:
        return (
            "equal_grid",
            {"equal_grid": equal_sized_grid(instance)},
            "uniform sizes on both sides: equal-sized grid",
            {},
        )
    half = instance.q // 2
    has_big = any(w > half for w in instance.x_sizes) or any(
        w > half for w in instance.y_sizes
    )
    if has_big:
        considered = {
            "big_small": big_small_x2y(instance),
            "best_split_grid": best_split_grid(instance),
        }
        chosen = min(considered, key=lambda name: considered[name].num_reducers)
        return (
            chosen,
            considered,
            f"big inputs present (> q//2 = {half}): better of big/small "
            "and best-split grid",
            {},
        )
    return (
        "best_split_grid",
        {"best_split_grid": best_split_grid(instance)},
        "mixed sizes, no big inputs: best-split grid",
        {},
    )


def fast_path_multiway(instance: MultiwayInstance) -> FastPathChoice:
    """Multiway dispatch: the bin-combining scheme is the only method."""
    return (
        "bin_combining",
        {"bin_combining": multiway_bin_combining(instance)},
        "multiway: generalized bin-combining scheme",
        {},
    )


def fast_path(instance: A2AInstance | X2YInstance | MultiwayInstance) -> FastPathChoice:
    """Dispatch on instance type; see the per-kind functions."""
    if isinstance(instance, A2AInstance):
        return fast_path_a2a(instance)
    if isinstance(instance, X2YInstance):
        return fast_path_x2y(instance)
    return fast_path_multiway(instance)
