"""Deterministic, seedable fault injection for engine tasks.

Chaos testing is only useful when it is reproducible: a failure found at
seed 7 must be re-runnable at seed 7, on any backend, until it is fixed.
So the injector draws no random numbers from a shared stream — every
decision is a pure function of ``(seed, kind, phase, task index,
attempt)``, hashed through BLAKE2 into a uniform ``[0, 1)`` roll that is
compared against the configured rate.  Consequences:

* Decisions are independent of scheduling order, worker count, and
  backend — the same task attempt fails the same way everywhere.
* Retries see fresh rolls (the attempt number is part of the key), so an
  injected crash is transient by construction: with rate ``p`` the chance
  a task fails ``k`` attempts in a row is ``p^k``, and for any fixed seed
  the outcome is knowable in advance.
* The injector is a plain picklable value object; process-pool workers
  evaluate the same decisions the parent would.

Four fault kinds model the classic MapReduce failure modes:

``crash``
    the task attempt raises :class:`~repro.exceptions.InjectedFaultError`
    (a task failure whose rerun succeeds).
``kill``
    the worker *process* dies mid-task (``os._exit``), breaking the
    process pool — this is the worker-death path that forces pool rebuild
    and in-flight task replay.  On the serial backend, which has no
    killable workers, it degrades to a crash, so outcomes stay identical
    across backends.
``delay``
    the attempt sleeps (a straggler) before running; pairs with per-task
    timeouts to exercise the abandon-and-retry path.
``transient``
    the attempt raises :class:`~repro.exceptions.TransientFaultError`, a
    :class:`ConnectionError` subclass, exercising the retry policy's
    generic transient classification.

The spec grammar (CLI ``--inject-faults``) is a comma list of
``kind=rate`` entries plus an optional ``seed=N``; ``delay`` accepts
``delay=rate:seconds``.  Example::

    crash=0.2,kill=0.05,delay=0.1:0.02,transient=0.1,seed=7
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from hashlib import blake2b

from repro.exceptions import (
    InjectedFaultError,
    InvalidInstanceError,
    TransientFaultError,
)

#: Exit code used by injected worker kills; distinctive in core dumps/logs.
KILL_EXIT_CODE = 113

#: Recognized fault kinds, in the order they are evaluated per attempt
#: (delay first — a straggler can still crash afterwards).
FAULT_KINDS = ("delay", "kill", "crash", "transient")

#: Default straggler sleep when ``delay=rate`` omits the seconds part.
DEFAULT_DELAY_SECONDS = 0.05


def _check_rate(name: str, rate: float) -> float:
    if not 0.0 <= rate <= 1.0:
        raise InvalidInstanceError(
            f"fault rate {name} must be in [0, 1], got {rate}"
        )
    return float(rate)


@dataclass(frozen=True)
class FaultSpec:
    """Parsed, validated fault-injection configuration.

    A value object: hashable, picklable, round-trippable through
    :meth:`parse` / :meth:`format`.  All rates default to 0, so
    ``FaultSpec()`` is a valid no-op spec (``enabled`` is False).
    """

    crash: float = 0.0
    kill: float = 0.0
    delay: float = 0.0
    transient: float = 0.0
    delay_seconds: float = DEFAULT_DELAY_SECONDS
    seed: int = 0

    def __post_init__(self) -> None:
        for kind in ("crash", "kill", "delay", "transient"):
            _check_rate(kind, getattr(self, kind))
        if self.delay_seconds < 0:
            raise InvalidInstanceError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any fault kind has a nonzero rate."""
        return any(
            getattr(self, kind) > 0.0
            for kind in ("crash", "kill", "delay", "transient")
        )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI spec grammar (see module docstring).

        Raises :class:`~repro.exceptions.InvalidInstanceError` on unknown
        keys, malformed numbers, or out-of-range rates — the CLI surfaces
        the message verbatim.
        """
        fields: dict[str, float | int] = {}
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            key, sep, value = entry.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise InvalidInstanceError(
                    f"malformed fault spec entry {entry!r}; expected "
                    "kind=rate (e.g. crash=0.2)"
                )
            try:
                if key == "seed":
                    fields["seed"] = int(value)
                elif key == "delay":
                    rate, sep, seconds = value.partition(":")
                    fields["delay"] = float(rate)
                    if sep:
                        fields["delay_seconds"] = float(seconds)
                elif key in ("crash", "kill", "transient"):
                    fields[key] = float(value)
                else:
                    raise InvalidInstanceError(
                        f"unknown fault kind {key!r}; choose from "
                        f"{sorted(FAULT_KINDS)} (plus seed=N)"
                    )
            except ValueError as exc:
                raise InvalidInstanceError(
                    f"malformed fault spec entry {entry!r}: {exc}"
                ) from exc
        return cls(**fields)

    def format(self) -> str:
        """Canonical spec string (parses back to an equal spec)."""
        parts = []
        for kind in ("crash", "kill", "transient"):
            rate = getattr(self, kind)
            if rate > 0:
                parts.append(f"{kind}={rate:g}")
        if self.delay > 0:
            parts.append(f"delay={self.delay:g}:{self.delay_seconds:g}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)

    def scaled(self, factor: float) -> "FaultSpec":
        """A copy with every rate multiplied by *factor* (capped at 1).

        Sweeping one spec shape across failure rates this way keeps the
        kind mix constant while the overall rate varies.
        """
        return FaultSpec(
            crash=min(1.0, self.crash * factor),
            kill=min(1.0, self.kill * factor),
            delay=min(1.0, self.delay * factor),
            transient=min(1.0, self.transient * factor),
            delay_seconds=self.delay_seconds,
            seed=self.seed,
        )


def as_fault_spec(spec: "FaultSpec | str | None") -> FaultSpec | None:
    """Normalize a config field: parse strings, pass specs, keep ``None``."""
    if spec is None or isinstance(spec, FaultSpec):
        return spec
    return FaultSpec.parse(spec)


class FaultInjector:
    """Evaluates a :class:`FaultSpec` deterministically per task attempt.

    Picklable (plain attributes only); workers and parent agree on every
    decision because decisions depend only on the spec and the attempt
    coordinates, never on call order.
    """

    def __init__(self, spec: FaultSpec):
        self.spec = spec

    def roll(self, kind: str, phase: str, index: int, attempt: int) -> float:
        """The uniform ``[0, 1)`` draw for one decision coordinate."""
        key = f"{self.spec.seed}|{kind}|{phase}|{index}|{attempt}"
        digest = blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2**64

    def decides(self, kind: str, phase: str, index: int, attempt: int) -> bool:
        """Whether *kind* fires for this ``(phase, task, attempt)``."""
        rate = getattr(self.spec, kind)
        return rate > 0.0 and self.roll(kind, phase, index, attempt) < rate

    def maybe_inject(
        self, phase: str, index: int, attempt: int, *, allow_kill: bool = False
    ) -> None:
        """Apply the spec's faults to one task attempt (worker side).

        Evaluation order is :data:`FAULT_KINDS`: a straggler delay happens
        first (the attempt may still fail afterwards), then at most one
        failure fires — kill beats crash beats transient.  ``allow_kill``
        is True only on backends whose workers are disposable OS processes;
        elsewhere a kill decision degrades to a crash with the same
        decision coordinates, keeping cross-backend outcomes identical.
        """
        if self.decides("delay", phase, index, attempt):
            time.sleep(self.spec.delay_seconds)
        if self.decides("kill", phase, index, attempt):
            if allow_kill:
                os._exit(KILL_EXIT_CODE)
            raise InjectedFaultError(
                f"injected worker kill (degraded to task crash) in {phase} "
                f"task {index} attempt {attempt}",
                kind="kill",
                phase=phase,
                task_index=index,
                attempt=attempt,
            )
        if self.decides("crash", phase, index, attempt):
            raise InjectedFaultError(
                f"injected task crash in {phase} task {index} "
                f"attempt {attempt}",
                kind="crash",
                phase=phase,
                task_index=index,
                attempt=attempt,
            )
        if self.decides("transient", phase, index, attempt):
            raise TransientFaultError(
                f"injected transient fault in {phase} task {index} "
                f"attempt {attempt}",
                kind="transient",
                phase=phase,
                task_index=index,
                attempt=attempt,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({self.spec.format()!r})"
