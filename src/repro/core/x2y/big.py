"""General X2Y scheme with dedicated big-input handling.

Like the A2A big/small scheme, inputs larger than ``q // 2`` get special
treatment: a big X input cannot share a half-capacity bin, so it is
replicated against bins of Y packed into its *residual* capacity
``q - w``.  The four pair classes are covered separately:

1. big-X x big-Y: one dedicated reducer per cross pair (in a *feasible*
   instance this class is empty — two inputs above q/2 that must meet
   would overflow q — but the code handles it so near-boundary integer
   cases stay safe);
2. big-X x small-Y: per big X, pack the small Ys into ``q - w`` bins;
3. small-X x big-Y: symmetric;
4. small-X x small-Y: the half-split grid on the smalls.

When neither side has big inputs this reduces exactly to the half-split
grid.  Compared to :func:`repro.core.x2y.grid.best_split_grid` — which is
also fully general — this scheme can win when one side's bigs would force
the global split to starve the other side; ``solve_x2y(..., "auto")``
simply builds both and keeps the cheaper.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import product

from repro.binpack.ffd import first_fit_decreasing
from repro.binpack.packing import PackingResult
from repro.core.instance import X2YInstance
from repro.core.schema import X2YSchema
from repro.core.x2y.grid import Costs, half_split_grid_costs

Packer = Callable[[Sequence[int], int], PackingResult]


def split_big_small_x2y(
    instance: X2YInstance,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Partition both sides into big (> q//2) and small indices.

    Returns ``(big_x, small_x, big_y, small_y)``.
    """
    half = instance.q // 2
    big_x = [i for i, w in enumerate(instance.x_sizes) if w > half]
    small_x = [i for i, w in enumerate(instance.x_sizes) if w <= half]
    big_y = [j for j, w in enumerate(instance.y_sizes) if w > half]
    small_y = [j for j, w in enumerate(instance.y_sizes) if w <= half]
    return big_x, small_x, big_y, small_y


def big_small_x2y(
    instance: X2YInstance,
    packer: Packer = first_fit_decreasing,
) -> X2YSchema:
    """Build a valid schema for any feasible X2Y instance.

    Raises :class:`repro.exceptions.InfeasibleInstanceError` if the largest
    X and largest Y inputs cannot co-fit.
    """
    instance.check_feasible()
    xs, ys = instance.x_sizes, instance.y_sizes
    q = instance.q
    big_x, small_x, big_y, small_y = split_big_small_x2y(instance)
    # Reducer r holds x_bins[a] and y_bins[b] for (a, b) = blocks[r]; a big
    # input is a bin of its own.
    x_bins: list[Sequence[int]] = [(i,) for i in big_x]
    y_bins: list[Sequence[int]] = [(j,) for j in big_y]

    # 1. big-X x big-Y cross pairs, one reducer each.
    blocks = list(product(range(len(big_x)), range(len(big_y))))

    # 2. each big X meets all small Ys via residual-capacity bins.
    for a, i in enumerate(big_x):
        if not small_y:
            break
        packing = packer([ys[j] for j in small_y], q - xs[i])
        for bin_items in packing.bins:
            blocks.append((a, len(y_bins)))
            y_bins.append([small_y[j] for j in bin_items])

    # 3. each big Y meets all small Xs, symmetrically.
    for b, j in enumerate(big_y):
        if not small_x:
            break
        packing = packer([xs[i] for i in small_x], q - ys[j])
        for bin_items in packing.bins:
            blocks.append((len(x_bins), b))
            x_bins.append([small_x[i] for i in bin_items])

    # 4. small-X x small-Y via the half-split grid.
    if small_x and small_y:
        half = q // 2
        x_packing = packer([xs[i] for i in small_x], half)
        y_packing = packer([ys[j] for j in small_y], q - half)
        first_x, first_y = len(x_bins), len(y_bins)
        x_bins += [[small_x[i] for i in b] for b in x_packing.bins]
        y_bins += [[small_y[j] for j in b] for b in y_packing.bins]
        blocks += product(range(first_x, len(x_bins)), range(first_y, len(y_bins)))

    return X2YSchema.from_bins(
        instance, x_bins, y_bins, blocks, algorithm="big_small_x2y"
    )


def big_small_x2y_costs(instance: X2YInstance) -> Costs | None:
    """The :data:`~repro.core.x2y.grid.Costs` of :func:`big_small_x2y`
    (FFD) when no input exceeds ``q // 2``, unbuilt; ``None`` otherwise.

    Without big inputs the scheme is the half-split grid, so it costs
    what :func:`~repro.core.x2y.grid.half_split_grid_costs` counts.  With
    them its per-big-input residual packings are left to the builder.
    Raises as the builder does on an infeasible instance.
    """
    instance.check_feasible()
    half = instance.q // 2
    if max(instance.x_sizes) > half or max(instance.y_sizes) > half:
        return None
    return half_split_grid_costs(instance)
