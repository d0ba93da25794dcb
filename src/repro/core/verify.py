"""Structural verification of mapping schemas.

A schema is valid iff (i) no reducer's total assigned size exceeds ``q`` and
(ii) every required pair meets at some reducer — the two conditions of the
paper's mapping-schema definition.  Verification returns a structured report
rather than a bare bool so tests and callers can see *which* constraint broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import lt
from typing import TYPE_CHECKING, Sequence

from repro.exceptions import InvalidSchemaError
from repro.utils.bits import set_bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.core.schema import A2ASchema, X2YSchema


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying a mapping schema against its instance.

    Attributes:
        valid: ``True`` iff both conditions hold.
        capacity_violations: ``(reducer_index, load)`` for each overloaded
            reducer.
        uncovered_pairs: required pairs that meet at no reducer.  For A2A a
            pair is ``(i, j)`` with ``i < j``; for X2Y it is
            ``(x_index, y_index)``.
        duplicate_assignments: ``(reducer_index, input_key)`` where the same
            input appears twice in one reducer (wasted capacity; flagged but
            only treated as invalid if it causes an overflow).
        num_reducers: size of the schema checked.
    """

    valid: bool
    capacity_violations: tuple[tuple[int, int], ...] = ()
    uncovered_pairs: tuple[tuple[int, int], ...] = ()
    duplicate_assignments: tuple[tuple[int, object], ...] = ()
    num_reducers: int = 0

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.valid:
            return f"valid schema with {self.num_reducers} reducers"
        return (
            f"INVALID schema ({self.num_reducers} reducers): "
            f"{len(self.capacity_violations)} capacity violations, "
            f"{len(self.uncovered_pairs)} uncovered pairs"
        )


#: Cap on how many violations a report enumerates; verification is used in
#: hot loops by tests and benches, and the first few violations carry all
#: the diagnostic value.
_MAX_REPORTED = 50


def _members(
    r_index: int,
    indices: Sequence[int],
    sizes: Sequence[int],
    duplicates: list[tuple[int, object]],
    side: str | None = None,
) -> tuple[Sequence[int], int]:
    """One side of reducer *r_index*: its pair-naming indices and its load.

    The indices come back distinct, ascending and without negative ones
    (those index a size from the end, but name no pair).  The load counts
    each distinct index once; a repeated index is recorded in
    *duplicates*, as ``(side, index)`` when *side* is given.
    """
    if all(map(lt, indices, indices[1:])):
        # Strictly ascending, as from_lists normalises: nothing repeats.
        load = sum(map(sizes.__getitem__, indices))
    else:
        seen: set[int] = set()
        load = 0
        for i in indices:
            if i in seen:
                duplicates.append((r_index, i if side is None else (side, i)))
                continue
            seen.add(i)
            load += sizes[i]
        indices = sorted(seen)
    if indices and indices[0] < 0:
        indices = [i for i in indices if i >= 0]
    return indices, load


def _first_missing(rows: list[int], width: int, upper_only: bool) -> list[tuple[int, int]]:
    """The first :data:`_MAX_REPORTED` pairs ``(i, j)`` whose bit ``j`` of
    ``rows[i]`` is clear, with ``j < width`` (and ``j > i`` if
    *upper_only*), in ascending ``(i, j)`` order."""
    full = (1 << width) - 1
    missing_pairs: list[tuple[int, int]] = []
    for i, row in enumerate(rows):
        missing = full & ~row
        if upper_only:
            missing = missing >> (i + 1) << (i + 1)
        missing_pairs.extend((i, j) for j in set_bits(missing))
        if len(missing_pairs) >= _MAX_REPORTED:
            return missing_pairs[:_MAX_REPORTED]
    return missing_pairs


def verify_a2a(schema: "A2ASchema") -> VerificationReport:
    """Verify an A2A schema: capacities and all-pairs coverage.

    Coverage is kept as one bitmask per input: bit ``j`` of
    ``met[i]`` is set once inputs ``i`` and ``j`` share a reducer.
    """
    instance = schema.instance
    capacity_violations: list[tuple[int, int]] = []
    duplicates: list[tuple[int, object]] = []

    met = [0] * instance.m
    bit = [1 << i for i in range(instance.m)]
    for r_index, reducer in enumerate(schema.reducers):
        members, load = _members(r_index, reducer, instance.sizes, duplicates)
        if load > instance.q and len(capacity_violations) < _MAX_REPORTED:
            capacity_violations.append((r_index, load))
        mask = sum(map(bit.__getitem__, members))
        for i in members:
            met[i] |= mask

    uncovered = _first_missing(met, instance.m, upper_only=True)
    valid = not capacity_violations and not uncovered
    return VerificationReport(
        valid=valid,
        capacity_violations=tuple(capacity_violations),
        uncovered_pairs=tuple(uncovered),
        duplicate_assignments=tuple(duplicates[:_MAX_REPORTED]),
        num_reducers=schema.num_reducers,
    )


def verify_x2y(schema: "X2YSchema") -> VerificationReport:
    """Verify an X2Y schema: capacities and all-cross-pairs coverage.

    Coverage is kept as one bitmask per X input: bit ``j`` of ``met[i]``
    is set once X input ``i`` and Y input ``j`` share a reducer.
    """
    instance = schema.instance
    capacity_violations: list[tuple[int, int]] = []
    duplicates: list[tuple[int, object]] = []

    met = [0] * instance.m
    bit = [1 << j for j in range(instance.n)]
    for r_index, (x_part, y_part) in enumerate(schema.reducers):
        x_members, x_load = _members(r_index, x_part, instance.x_sizes, duplicates, "x")
        y_members, y_load = _members(r_index, y_part, instance.y_sizes, duplicates, "y")
        load = x_load + y_load
        if load > instance.q and len(capacity_violations) < _MAX_REPORTED:
            capacity_violations.append((r_index, load))
        y_mask = sum(map(bit.__getitem__, y_members))
        for i in x_members:
            met[i] |= y_mask

    uncovered = _first_missing(met, instance.n, upper_only=False)
    valid = not capacity_violations and not uncovered
    return VerificationReport(
        valid=valid,
        capacity_violations=tuple(capacity_violations),
        uncovered_pairs=tuple(uncovered),
        duplicate_assignments=tuple(duplicates[:_MAX_REPORTED]),
        num_reducers=schema.num_reducers,
    )


def require_valid(report: VerificationReport, context: str = "schema") -> None:
    """Raise :class:`InvalidSchemaError` unless *report* says valid."""
    if not report.valid:
        raise InvalidSchemaError(f"{context}: {report.summary()}", report=report)
