"""Declarative job specifications: what to solve, not how.

A :class:`JobSpec` captures a mapping-schema problem the way a caller
thinks about it — the problem kind (all-to-all, X-to-Y, or multiway), the
input sizes, the reducer capacity ``q``, and *what to optimize for* — and
nothing about algorithms or execution.  The planner
(:func:`repro.planner.plan`) turns a spec into an executable
:class:`~repro.planner.plan.Plan`; the applications are thin spec
builders on top of this type.

Sizes may be given as plain integers, as objects exposing a ``.size``
attribute (documents, users, tuples, vector blocks — every workload type
in :mod:`repro.workloads` qualifies), or as a
:class:`~repro.dataset.Dataset` of either, so an application can hand its
records straight to the spec constructor.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.instance import A2AInstance, X2YInstance
from repro.core.multiway import MultiwayInstance
from repro.dataset import Dataset
from repro.exceptions import InvalidInstanceError

#: Problem kinds the planner understands.
KINDS = ("a2a", "x2y", "multiway")

#: Planning objectives.  ``min-reducers`` minimizes the reducer count (the
#: paper's primary target) and ``min-communication`` minimizes total map →
#: reduce traffic.  Every planned job runs on one serial partition, where
#: the reduce work is the communication, so no objective weighs a worker
#: pool.
OBJECTIVES = ("min-reducers", "min-communication")

#: Spec/plan wire-format version.
SPEC_FORMAT_VERSION = 1


def coerce_sizes(source: Iterable[Any] | Dataset, label: str = "sizes") -> tuple[int, ...]:
    """Normalize a size source into a tuple of integers.

    Accepts integers, objects with a ``.size`` attribute, or a
    :class:`~repro.dataset.Dataset` of either (materialized once — the
    planner needs every size before any record is routed).
    """
    if isinstance(source, Dataset):
        source = source.materialize()
    sizes: list[int] = []
    for item in source:
        if isinstance(item, bool):
            raise InvalidInstanceError(f"{label} entries must be integers, got {item!r}")
        # Integer-likes (including numpy integer scalars, which are not
        # Python ints but do define __index__) must be tried before the
        # .size attribute: a numpy scalar's .size is its element count —
        # always 1 — not the value.
        try:
            sizes.append(operator.index(item))
            continue
        except TypeError:
            pass
        if hasattr(item, "size"):
            sizes.append(item.size)
        else:
            raise InvalidInstanceError(
                f"{label} entries must be integers or objects with a .size "
                f"attribute, got {type(item).__name__}"
            )
    return tuple(sizes)


@dataclass(frozen=True)
class JobSpec:
    """A declarative mapping-schema job.

    Attributes:
        kind: problem kind — ``"a2a"``, ``"x2y"``, or ``"multiway"``.
        q: reducer capacity.
        sizes: input sizes (``a2a`` and ``multiway`` kinds).
        x_sizes: X-side sizes (``x2y`` kind).
        y_sizes: Y-side sizes (``x2y`` kind).
        r: meeting arity for the ``multiway`` kind (every r-subset of
            inputs must meet); ``None`` for the pairwise kinds.
        objective: what the planner optimizes — one of
            :data:`OBJECTIVES`.
        method: ``None`` asks for full cost-based planning over every
            registered method; ``"auto"`` asks for the structural fast
            path (the historical ``method="auto"`` heuristic); a method
            name pins that algorithm.
    """

    kind: str
    q: int
    sizes: tuple[int, ...] | None = None
    x_sizes: tuple[int, ...] | None = None
    y_sizes: tuple[int, ...] | None = None
    r: int | None = None
    objective: str = "min-reducers"
    method: str | None = field(default="auto")

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidInstanceError(
                f"unknown problem kind {self.kind!r}; choose from {list(KINDS)}"
            )
        if self.objective not in OBJECTIVES:
            raise InvalidInstanceError(
                f"unknown objective {self.objective!r}; choose from "
                f"{list(OBJECTIVES)}"
            )
        if self.kind == "x2y":
            if self.x_sizes is None or self.y_sizes is None:
                raise InvalidInstanceError("x2y specs need x_sizes and y_sizes")
            if self.sizes is not None:
                raise InvalidInstanceError("x2y specs take x_sizes/y_sizes, not sizes")
            if not self.x_sizes or not self.y_sizes:
                raise InvalidInstanceError(
                    "x2y specs need at least one input on each side"
                )
        else:
            if self.sizes is None:
                raise InvalidInstanceError(f"{self.kind} specs need sizes")
            if self.x_sizes is not None or self.y_sizes is not None:
                raise InvalidInstanceError(
                    f"{self.kind} specs take sizes, not x_sizes/y_sizes"
                )
            if not self.sizes:
                raise InvalidInstanceError(
                    f"{self.kind} specs need at least one input"
                )
        if self.kind == "multiway":
            if self.r is None or self.r < 2:
                raise InvalidInstanceError(
                    f"multiway specs need an arity r >= 2, got {self.r}"
                )
        elif self.r is not None:
            raise InvalidInstanceError(f"{self.kind} specs do not take an arity r")

    # -- constructors ---------------------------------------------------

    @classmethod
    def a2a(
        cls,
        sizes: Iterable[Any] | Dataset,
        q: int,
        *,
        objective: str = "min-reducers",
        method: str | None = "auto",
    ) -> "JobSpec":
        """An all-to-all spec; *sizes* may be ints, sized objects, or a Dataset."""
        return cls(
            kind="a2a",
            q=q,
            sizes=coerce_sizes(sizes),
            objective=objective,
            method=method,
        )

    @classmethod
    def x2y(
        cls,
        x_sizes: Iterable[Any] | Dataset,
        y_sizes: Iterable[Any] | Dataset,
        q: int,
        *,
        objective: str = "min-reducers",
        method: str | None = "auto",
    ) -> "JobSpec":
        """An X-to-Y spec; each side may be ints, sized objects, or a Dataset."""
        return cls(
            kind="x2y",
            q=q,
            x_sizes=coerce_sizes(x_sizes, "x_sizes"),
            y_sizes=coerce_sizes(y_sizes, "y_sizes"),
            objective=objective,
            method=method,
        )

    @classmethod
    def multiway(
        cls,
        sizes: Iterable[Any] | Dataset,
        q: int,
        r: int,
        *,
        objective: str = "min-reducers",
        method: str | None = "auto",
    ) -> "JobSpec":
        """A multiway spec: every *r*-subset of inputs must meet."""
        return cls(
            kind="multiway",
            q=q,
            sizes=coerce_sizes(sizes),
            r=r,
            objective=objective,
            method=method,
        )

    # -- derived views --------------------------------------------------

    def instance(self) -> A2AInstance | X2YInstance | MultiwayInstance:
        """The validated problem instance this spec describes."""
        if self.kind == "a2a":
            return A2AInstance(self.sizes, self.q)
        if self.kind == "x2y":
            return X2YInstance(self.x_sizes, self.y_sizes, self.q)
        return MultiwayInstance(self.sizes, self.q, self.r)

    @property
    def num_inputs(self) -> int:
        """Total number of inputs across all sides."""
        if self.kind == "x2y":
            return len(self.x_sizes) + len(self.y_sizes)
        return len(self.sizes)

    @property
    def total_size(self) -> int:
        """Total input size across all sides."""
        if self.kind == "x2y":
            return sum(self.x_sizes) + sum(self.y_sizes)
        return sum(self.sizes)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict form (the spec part of the Plan wire format)."""
        payload: dict[str, Any] = {
            "kind": self.kind,
            "q": self.q,
            "objective": self.objective,
            "method": self.method,
        }
        if self.kind == "x2y":
            payload["x_sizes"] = list(self.x_sizes)
            payload["y_sizes"] = list(self.y_sizes)
        else:
            payload["sizes"] = list(self.sizes)
        if self.r is not None:
            payload["r"] = self.r
        return payload

    def fingerprint(self) -> str:
        """Content fingerprint of this spec (hex SHA-256).

        Computed over the canonical (sorted-key, whitespace-free) JSON of
        :meth:`to_dict` plus the wire-format version, so two specs
        fingerprint equal exactly when they describe the same problem,
        objective, and method request — the key ingredient of plan-cache
        keys (see :func:`repro.planner.planner.plan_fingerprint`, which
        additionally mixes in the environment).
        """
        payload = {"version": SPEC_FORMAT_VERSION, "spec": self.to_dict()}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a spec from its :meth:`to_dict` form."""
        if not isinstance(payload, Mapping):
            raise InvalidInstanceError(
                f"spec payload must be a JSON object, got {type(payload).__name__}"
            )
        try:
            kind = payload["kind"]
            q = payload["q"]
        except KeyError as exc:
            raise InvalidInstanceError(
                f"spec payload is missing {exc.args[0]!r}"
            ) from exc
        return cls(
            kind=kind,
            q=q,
            sizes=(
                tuple(payload["sizes"]) if payload.get("sizes") is not None else None
            ),
            x_sizes=(
                tuple(payload["x_sizes"])
                if payload.get("x_sizes") is not None
                else None
            ),
            y_sizes=(
                tuple(payload["y_sizes"])
                if payload.get("y_sizes") is not None
                else None
            ),
            r=payload.get("r"),
            objective=payload.get("objective", "min-reducers"),
            method=payload.get("method"),
        )
