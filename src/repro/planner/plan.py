"""The planner's output: an inspectable, serializable execution plan.

A :class:`Plan` records everything the planner decided and why: the spec
it planned for, every candidate method with its cost scores (or the
reason it was skipped or failed), the chosen method with a one-line
rationale, and the lower bounds the choice was judged against.  A plan
depends on its spec alone: the engine configuration it runs on is
resolved when it runs (:func:`repro.planner.run`).  Plans round-trip
through JSON (``repro plan --json-out`` → :meth:`Plan.from_json`), and
:meth:`Plan.schema` deterministically rebuilds the chosen mapping schema
from the spec, so a deserialized plan is as executable as a fresh one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.exceptions import InvalidInstanceError
from repro.planner.spec import SPEC_FORMAT_VERSION, JobSpec

#: Candidate states: scored (costed and eligible), skipped (not attempted,
#: e.g. exact above the size threshold), failed (attempted but raised).
CANDIDATE_STATUSES = ("scored", "skipped", "failed")


@dataclass(frozen=True)
class CandidateScore:
    """One method's scorecard inside a plan.

    ``objective_value`` is the candidate's value under the spec's
    objective (reducers or communication) — the number the planner
    minimized; the remaining cost fields are reported for every
    scored candidate regardless of objective so ``--explain`` can show
    the full tradeoff table.
    """

    method: str
    status: str
    reason: str = ""
    num_reducers: int | None = None
    communication_cost: int | None = None
    replication_rate: float | None = None
    max_load: int | None = None
    objective_value: float | None = None

    def __post_init__(self) -> None:
        if self.status not in CANDIDATE_STATUSES:
            raise InvalidInstanceError(
                f"unknown candidate status {self.status!r}; choose from "
                f"{list(CANDIDATE_STATUSES)}"
            )

    def as_row(self) -> dict[str, Any]:
        """Dict form for table rendering and the JSON wire format."""
        return {
            "method": self.method,
            "status": self.status,
            "num_reducers": self.num_reducers,
            "communication_cost": self.communication_cost,
            "replication_rate": self.replication_rate,
            "max_load": self.max_load,
            "objective_value": self.objective_value,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CandidateScore":
        """Rebuild from :meth:`as_row` form, ignoring unknown fields."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        kwargs.setdefault("method", "?")
        kwargs.setdefault("status", "failed")
        if kwargs.get("reason") is None:
            kwargs["reason"] = ""
        return cls(**kwargs)


@dataclass(frozen=True)
class Plan:
    """A fully resolved execution plan for one :class:`JobSpec`.

    Attributes:
        spec: the spec this plan answers.
        chosen: registry name of the winning method.
        rationale: one line explaining the choice (structural rule for
            the fast path, objective comparison for full planning).
        candidates: every candidate considered, scored or annotated.
        lower_bounds: problem lower bounds (``num_reducers``,
            ``communication_cost``) the chosen plan can be judged against.
        mode: ``"fast-path"``, ``"planned"``, or ``"pinned"``.
    """

    spec: JobSpec
    chosen: str
    rationale: str
    candidates: tuple[CandidateScore, ...]
    lower_bounds: dict[str, int] = field(default_factory=dict)
    mode: str = "planned"

    def candidate(self, method: str) -> CandidateScore:
        """Look up one candidate's scorecard by method name."""
        for score in self.candidates:
            if score.method == method:
                return score
        raise KeyError(method)

    @property
    def chosen_score(self) -> CandidateScore:
        """The winning candidate's scorecard."""
        return self.candidate(self.chosen)

    def schema(self):
        """The chosen mapping schema, rebuilt deterministically from the spec.

        Cached on first call; a plan loaded from JSON rebuilds the schema
        by running the chosen method on the spec's instance, so
        serialization never has to carry reducer lists.
        """
        cached = getattr(self, "_schema_cache", None)
        if cached is None:
            from repro.planner.planner import build_schema

            cached = build_schema(self.spec, self.chosen)
            object.__setattr__(self, "_schema_cache", cached)
        return cached

    # -- rendering ------------------------------------------------------

    def candidate_rows(self, *, explain: bool = False) -> list[dict[str, Any]]:
        """Rows for :func:`repro.utils.tables.format_table`.

        The compact form (default) shows method, status, and the
        objective value; ``explain=True`` adds every cost column.
        """
        rows = []
        for score in self.candidates:
            row = score.as_row()
            if not explain:
                row = {
                    "method": row["method"],
                    "status": row["status"],
                    "objective_value": row["objective_value"],
                    "reason": row["reason"],
                }
            row["chosen"] = "*" if score.method == self.chosen else ""
            rows.append(row)
        return rows

    def describe(self, *, explain: bool = False) -> str:
        """Human-readable plan summary (what ``repro plan`` prints)."""
        from repro.utils.tables import format_table

        bounds = ", ".join(
            f"{name} >= {value}" for name, value in sorted(self.lower_bounds.items())
        )
        lines = [
            f"kind      : {self.spec.kind} "
            f"({self.spec.num_inputs} inputs, q={self.spec.q})",
            f"objective : {self.spec.objective}",
            f"mode      : {self.mode}",
            f"chosen    : {self.chosen}",
            f"rationale : {self.rationale}",
        ]
        if bounds:
            lines.append(f"bounds    : {bounds}")
        lines.append(
            format_table(self.candidate_rows(explain=explain), title="candidates")
        )
        return "\n".join(lines)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict form (schema omitted — rebuilt from the spec)."""
        return {
            "version": SPEC_FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "chosen": self.chosen,
            "rationale": self.rationale,
            "mode": self.mode,
            "lower_bounds": dict(self.lower_bounds),
            "candidates": [score.as_row() for score in self.candidates],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Plan":
        """Rebuild a plan from its :meth:`to_dict` form (strict loading).

        Keys this library no longer writes are ignored, so plans saved by
        older versions (which also carried ``execution`` and
        ``environment`` blocks) still load.
        """
        if not isinstance(payload, Mapping):
            raise InvalidInstanceError(
                f"plan payload must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("version", SPEC_FORMAT_VERSION)
        if version != SPEC_FORMAT_VERSION:
            raise InvalidInstanceError(
                f"unsupported plan format version {version!r} "
                f"(this library reads version {SPEC_FORMAT_VERSION})"
            )
        for required in ("spec", "chosen"):
            if required not in payload:
                raise InvalidInstanceError(
                    f"plan payload is missing {required!r}"
                )
        return cls(
            spec=JobSpec.from_dict(payload["spec"]),
            chosen=payload["chosen"],
            rationale=payload.get("rationale", ""),
            mode=payload.get("mode", "planned"),
            lower_bounds={
                str(k): int(v)
                for k, v in (payload.get("lower_bounds") or {}).items()
            },
            candidates=tuple(
                CandidateScore.from_dict(row)
                for row in payload.get("candidates", [])
            ),
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        """The plan as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        """Parse a plan from :meth:`to_json` output (bad JSON is wrapped)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInstanceError(f"plan is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)
