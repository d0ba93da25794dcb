"""Map/shuffle primitives of the reference simulator.

:class:`repro.mapreduce.job.MapReduceJob` implements the abstract model
the paper defines its metrics on: mappers emit key-value pairs, and the
shuffle groups values by key into one dict (:func:`group_pairs`) — its
job is to define the metrics, not to be fast.  The execution engine
(:mod:`repro.engine`) runs plans whose reducers are fixed before the
run; it agrees with the simulator because both reduce in sorted key
order (:func:`ordered_keys`; the engine's keys are reducer indices).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable


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
