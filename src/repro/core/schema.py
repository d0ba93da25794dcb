"""Mapping schemas: the assignments of inputs to reducers.

A schema is the paper's central object — for A2A a set of reducers each
holding a subset of input indices, for X2Y a set of reducers each holding a
subset of X indices and a subset of Y indices.  Schemas are immutable; all
cost metrics are derived from them (see :mod:`repro.core.costs`) and all
validity checking lives in :mod:`repro.core.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import eq

from repro.core.instance import A2AInstance, X2YInstance
from repro.core.verify import VerificationReport, require_valid, verify_a2a, verify_x2y


def _normalized(indices) -> tuple[int, ...]:
    """*indices* ascending, each once.

    Sorting first and building a set only when two neighbours are equal
    is cheaper than deduplicating every reducer through a set.
    """
    ordered = sorted(indices)
    if any(map(eq, ordered, ordered[1:])):
        ordered = sorted(set(ordered))
    return tuple(ordered)


@dataclass(frozen=True)
class A2ASchema:
    """An assignment of A2A inputs to reducers.

    ``reducers[r]`` is the tuple of input indices assigned to reducer ``r``.
    The schema also records the name of the algorithm that produced it so
    experiment output is self-describing.
    """

    instance: A2AInstance
    reducers: tuple[tuple[int, ...], ...]
    algorithm: str = "unspecified"

    @classmethod
    def from_lists(
        cls,
        instance: A2AInstance,
        reducers,
        algorithm: str = "unspecified",
    ) -> "A2ASchema":
        """Build a schema from any iterable of iterables of input indices.

        Indices within each reducer are deduplicated and sorted so schemas
        compare structurally.
        """
        normalized = tuple(map(_normalized, reducers))
        return cls(instance=instance, reducers=normalized, algorithm=algorithm)

    @property
    def num_reducers(self) -> int:
        """Number of reducers used — the paper's primary minimization target."""
        return len(self.reducers)

    @cached_property
    def loads(self) -> tuple[int, ...]:
        """Total assigned size per reducer."""
        sizes = self.instance.sizes
        return tuple(sum(sizes[i] for i in reducer) for reducer in self.reducers)

    @cached_property
    def replication(self) -> tuple[int, ...]:
        """Number of reducers each input is assigned to."""
        counts = [0] * self.instance.m
        for reducer in self.reducers:
            for i in reducer:
                counts[i] += 1
        return tuple(counts)

    @property
    def communication_cost(self) -> int:
        """Total size shipped from mappers to reducers: sum of reducer loads.

        This is the paper's communication cost — each copy of an input sent
        to a reducer costs its size.
        """
        return sum(self.loads)

    @property
    def max_load(self) -> int:
        """Largest reducer load; inverse proxy for parallelism."""
        return max(self.loads, default=0)

    def reducers_of(self, input_index: int) -> tuple[int, ...]:
        """Indices of the reducers that input *input_index* is assigned to."""
        return tuple(
            r for r, members in enumerate(self.reducers) if input_index in members
        )

    def verify(self) -> VerificationReport:
        """Check capacity and all-pairs coverage; never raises."""
        return verify_a2a(self)

    def require_valid(self) -> "A2ASchema":
        """Raise :class:`repro.exceptions.InvalidSchemaError` if invalid."""
        require_valid(self.verify(), context=f"A2A schema from {self.algorithm}")
        return self


@dataclass(frozen=True)
class X2YSchema:
    """An assignment of X and Y inputs to reducers.

    ``reducers[r]`` is a pair ``(x_indices, y_indices)``: which X inputs and
    which Y inputs reducer ``r`` receives.
    """

    instance: X2YInstance
    reducers: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    algorithm: str = "unspecified"

    @classmethod
    def from_lists(
        cls,
        instance: X2YInstance,
        reducers,
        algorithm: str = "unspecified",
    ) -> "X2YSchema":
        """Build a schema from iterables of ``(x_indices, y_indices)`` pairs."""
        normalized = tuple(
            (_normalized(x_part), _normalized(y_part)) for x_part, y_part in reducers
        )
        return cls(instance=instance, reducers=normalized, algorithm=algorithm)

    @property
    def num_reducers(self) -> int:
        """Number of reducers used."""
        return len(self.reducers)

    @cached_property
    def loads(self) -> tuple[int, ...]:
        """Total assigned size per reducer (X side plus Y side)."""
        xs, ys = self.instance.x_sizes, self.instance.y_sizes
        return tuple(
            sum(xs[i] for i in x_part) + sum(ys[j] for j in y_part)
            for x_part, y_part in self.reducers
        )

    @cached_property
    def replication(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Replication counts as ``(x_counts, y_counts)``."""
        x_counts = [0] * self.instance.m
        y_counts = [0] * self.instance.n
        for x_part, y_part in self.reducers:
            for i in x_part:
                x_counts[i] += 1
            for j in y_part:
                y_counts[j] += 1
        return tuple(x_counts), tuple(y_counts)

    @property
    def communication_cost(self) -> int:
        """Total size shipped from mappers to reducers."""
        return sum(self.loads)

    @property
    def max_load(self) -> int:
        """Largest reducer load."""
        return max(self.loads, default=0)

    def verify(self) -> VerificationReport:
        """Check capacity and all-cross-pairs coverage; never raises."""
        return verify_x2y(self)

    def require_valid(self) -> "X2YSchema":
        """Raise :class:`repro.exceptions.InvalidSchemaError` if invalid."""
        require_valid(self.verify(), context=f"X2Y schema from {self.algorithm}")
        return self
