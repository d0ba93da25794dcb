"""X2Y scheme for equal sizes on each side.

With every X input of size ``w`` and every Y input of size ``w'``, a
reducer can host ``a`` X inputs and ``b`` Y inputs whenever
``a*w + b*w' <= q``.  The scheme picks the ``(a, b)`` maximizing the pairs
covered per reducer (``a * b``), groups each side accordingly, and assigns
every (X-group, Y-group) pair to one reducer — ``ceil(m/a) * ceil(n/b)``
reducers, matching the cross-pair lower bound up to rounding.
"""

from __future__ import annotations

from itertools import product

from repro.core.a2a.equal import group_inputs
from repro.core.instance import X2YInstance
from repro.core.schema import X2YSchema
from repro.core.x2y.grid import Costs
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError


def _require_equal_sides(instance: X2YInstance) -> tuple[int, int]:
    """Return (w, w') or raise if either side has mixed sizes."""
    x_unique = set(instance.x_sizes)
    y_unique = set(instance.y_sizes)
    if len(x_unique) != 1 or len(y_unique) != 1:
        raise InvalidInstanceError(
            "equal-sized X2Y scheme requires uniform sizes on each side; "
            f"got {len(x_unique)} distinct X sizes and {len(y_unique)} distinct Y sizes"
        )
    return instance.x_sizes[0], instance.y_sizes[0]


def best_group_shape(w: int, w_prime: int, q: int, m: int, n: int) -> tuple[int, int]:
    """The per-reducer group shape ``(a, b)`` maximizing covered pairs.

    Sweeps ``a`` over its feasible range and fills the rest with Y inputs;
    both counts are clamped to the population sizes so small instances do
    not over-allocate.  Raises :class:`InfeasibleInstanceError` when not
    even one input of each side co-fits.
    """
    if w + w_prime > q:
        raise InfeasibleInstanceError(
            f"one X input ({w}) plus one Y input ({w_prime}) exceed q = {q}"
        )
    best_a, best_b = 1, 1
    max_a = min(m, (q - w_prime) // w)
    for a in range(1, max_a + 1):
        b = min(n, (q - a * w) // w_prime)
        if b >= 1 and a * b > best_a * best_b:
            best_a, best_b = a, b
    return best_a, best_b


def equal_sized_grid(instance: X2YInstance) -> X2YSchema:
    """Build the grouped grid schema for an equal-sized X2Y instance."""
    w, w_prime = _require_equal_sides(instance)
    a, b = best_group_shape(w, w_prime, instance.q, instance.m, instance.n)
    x_groups = group_inputs(instance.m, a)
    y_groups = group_inputs(instance.n, b)
    return X2YSchema.from_bins(
        instance,
        x_groups,
        y_groups,
        product(range(len(x_groups)), range(len(y_groups))),
        algorithm=f"equal_grid[a={a},b={b}]",
    )


def equal_sized_grid_costs(instance: X2YInstance) -> Costs:
    """The :data:`~repro.core.x2y.grid.Costs` of :func:`equal_sized_grid`
    in closed form, unbuilt; raises as the builder does.

    Every reducer pairs an X group (``a`` inputs, fewer in the last) with
    a Y group, so each X input ships once per Y group and the heaviest
    reducer pairs two full groups.
    """
    w, w_prime = _require_equal_sides(instance)
    m, n = instance.m, instance.n
    a, b = best_group_shape(w, w_prime, instance.q, m, n)
    tx = -(-m // a)
    ty = -(-n // b)
    return tx * ty, ty * m * w + tx * n * w_prime, a * w + b * w_prime
