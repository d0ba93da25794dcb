"""A2A mapping-schema algorithms.

* :func:`equal_sized_grouping` — near-optimal scheme for equal sizes.
* :func:`grouped_covering` — covering-design scheme for equal sizes (beats
  plain grouping when many groups fit per reducer).
* :func:`ffd_pairing` — bin-pairing approximation for sizes <= q/2.
* :func:`triple_bins` — Steiner-triple bin scheme for sizes <= q/3.
* :func:`quad_bins` — transversal-design bin scheme for sizes <= q/4.
* :func:`big_small` — the general scheme (handles big inputs > q/2).
* :func:`greedy_cover` — unstructured greedy baseline.
* :func:`solve_min_reducers` — exact branch-and-bound for small instances.
"""

from repro.core.a2a.equal import (
    equal_sized_grouping,
    equal_sized_reducer_count,
    group_inputs,
    inputs_per_reducer,
)
from repro.core.a2a.ffd_pairing import ffd_pairing, pair_bins
from repro.core.a2a.triple_bins import triple_bins
from repro.core.a2a.quad_bins import quad_bins
from repro.core.a2a.grouped_covering import grouped_covering
from repro.core.a2a.big_small import big_small, split_big_small
from repro.core.a2a.greedy import greedy_cover
from repro.core.a2a.exact import solve_min_reducers
from repro.core.a2a.online import OnlineA2AAssigner

__all__ = [
    "equal_sized_grouping",
    "equal_sized_reducer_count",
    "group_inputs",
    "inputs_per_reducer",
    "ffd_pairing",
    "grouped_covering",
    "pair_bins",
    "triple_bins",
    "quad_bins",
    "big_small",
    "split_big_small",
    "greedy_cover",
    "solve_min_reducers",
    "OnlineA2AAssigner",
]
