"""X2Y mapping-schema algorithms.

* :func:`half_split_grid` / :func:`grid_with_split` / :func:`best_split_grid`
  — the bin-packing grid schemes.
* :func:`equal_sized_grid` — grouped grid for uniform sizes per side.
* :func:`big_small_x2y` — the general scheme with big-input handling.
* :func:`greedy_cover_x2y` — unstructured greedy baseline.
* :func:`solve_min_reducers_x2y` — exact branch-and-bound for small instances.

The grid family's ``*_costs`` functions count a scheme's reducers,
communication and max load from bin loads (or in closed form) without
building it; full planning scores those methods with them.
"""

from repro.core.x2y.grid import (
    Costs,
    best_split_grid,
    best_split_grid_costs,
    grid_with_split,
    half_split_grid,
    half_split_grid_costs,
)
from repro.core.x2y.equal import (
    best_group_shape,
    equal_sized_grid,
    equal_sized_grid_costs,
)
from repro.core.x2y.big import big_small_x2y, big_small_x2y_costs, split_big_small_x2y
from repro.core.x2y.greedy import greedy_cover_x2y
from repro.core.x2y.exact import solve_min_reducers_x2y

__all__ = [
    "Costs",
    "best_split_grid",
    "best_split_grid_costs",
    "grid_with_split",
    "half_split_grid",
    "half_split_grid_costs",
    "best_group_shape",
    "equal_sized_grid",
    "equal_sized_grid_costs",
    "big_small_x2y",
    "big_small_x2y_costs",
    "split_big_small_x2y",
    "greedy_cover_x2y",
    "solve_min_reducers_x2y",
]
