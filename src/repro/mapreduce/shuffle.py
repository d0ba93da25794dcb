"""Map/shuffle primitives of the reference simulator.

:class:`repro.mapreduce.job.MapReduceJob` implements the abstract model
the paper defines its metrics on: mappers emit key-value pairs, an
optional combiner folds each mapper's emissions, and the shuffle groups
values by key into one dict (:func:`group_pairs`) — its job is to define
the metrics, not to be fast.  The execution engine (:mod:`repro.engine`)
runs plans whose reducers are fixed before the run; it agrees with the
simulator because both reduce in sorted key order (:func:`ordered_keys`;
the engine's keys are reducer indices).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from repro.mapreduce.types import MapFn, ReduceFn


def map_record(
    record: Any,
    map_fn: MapFn,
    combiner_fn: ReduceFn | None = None,
) -> list[tuple[Hashable, Any]]:
    """Apply the map function (plus optional combiner) to one record.

    Each record plays the role of one mapper, so the combiner sees exactly
    the emissions of that record, grouped by key, before the shuffle — this
    is what makes combining reduce the shuffled volume.
    """
    emitted: list[tuple[Hashable, Any]] = list(map_fn(record))
    if combiner_fn is None:
        return emitted
    local: dict[Hashable, list[Any]] = {}
    for key, value in emitted:
        local.setdefault(key, []).append(value)
    return [
        (key, combined)
        for key, values in local.items()
        for combined in combiner_fn(key, values)
    ]


def group_pairs(
    pairs: Iterable[tuple[Hashable, Any]],
    groups: dict[Hashable, list[Any]] | None = None,
) -> dict[Hashable, list[Any]]:
    """Shuffle: append ``(key, value)`` pairs into per-key value lists.

    Passing an existing *groups* dict accumulates across calls; values keep
    arrival order so grouping is deterministic for a fixed record order.
    """
    if groups is None:
        groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def ordered_keys(groups: dict[Hashable, Any]) -> list[Hashable]:
    """Keys in sorted order when orderable, else insertion order.

    The simulator reduces keys in this order; for reducer-index keys it
    is the engine's order too, which is what makes their outputs
    byte-identical for the same inputs.
    """
    try:
        return sorted(groups)
    except TypeError:
        return list(groups)
