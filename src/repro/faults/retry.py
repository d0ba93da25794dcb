"""Retry policy: attempts, deterministic backoff, exception classification.

The policy answers three questions the backends' dispatch loop
(:meth:`~repro.engine.backends.Backend.run_tasks`) asks when it is given
one — with ``policy=None`` the loop never retries and every failure
propagates as it happened:

* *Is this failure worth retrying?* — :meth:`RetryPolicy.is_retryable`.
  The default classification is semantics-preserving: only failures whose
  rerun could plausibly succeed (injected faults, lost workers, per-task
  timeouts, OS/connection errors) are retried.  Model and user errors —
  invalid instances, capacity overflows in strict mode, a ``ValueError``
  raised by a user's reduce function — propagate unchanged on the first
  attempt, so a run with the fault plane enabled raises exactly the same
  exceptions a fault-free run would.
* *How many attempts does a task get?* — :attr:`RetryPolicy.max_attempts`
  (total attempts, not retries: ``max_attempts=1`` disables retrying).
* *How long to wait before the next attempt?* —
  :meth:`RetryPolicy.delay_seconds`: exponential backoff with a cap and
  deterministic jitter.  Like the fault injector, jitter is a hash of
  ``(seed, key, attempt)``, not a random draw, so backoff schedules are
  reproducible and identical across backends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from hashlib import blake2b

from repro.exceptions import (
    DeadlineExceededError,
    InjectedFaultError,
    InvalidInstanceError,
    TaskTimeoutError,
    WorkerLostError,
)

#: Exception types whose rerun can plausibly succeed.  ``TimeoutError``
#: and ``ConnectionError`` are ``OSError`` subclasses, listed explicitly
#: for documentation value; ``OSError`` itself covers transient I/O.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    InjectedFaultError,
    WorkerLostError,
    TaskTimeoutError,
    TimeoutError,
    ConnectionError,
    OSError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Validated retry configuration (picklable value object).

    Attributes:
        max_attempts: total attempts per task including the first
            (``1`` = never retry).
        backoff_base: delay before the first retry, in seconds.
        backoff_multiplier: growth factor per subsequent retry.
        backoff_max: upper bound on any single delay.
        jitter: fractional jitter added deterministically on top of the
            exponential delay (``0.1`` = up to +10%).
        seed: jitter seed; keyed together with the retry coordinates.
        retryable: exception types eligible for retry; failures outside
            this tuple propagate on the first attempt.
    """

    max_attempts: int = 4
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retryable: tuple[type[BaseException], ...] = field(
        default=DEFAULT_RETRYABLE
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidInstanceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        for name in ("backoff_base", "backoff_multiplier", "backoff_max",
                     "jitter"):
            value = getattr(self, name)
            if value < 0:
                raise InvalidInstanceError(
                    f"{name} must be >= 0, got {value}"
                )

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether a failed attempt with this exception may be retried.

        :class:`~repro.exceptions.DeadlineExceededError` is never
        retryable, whatever :attr:`retryable` says: it inherits
        ``TimeoutError`` for generic timeout handling, but a blown
        per-job deadline cannot be cured by trying again.
        """
        if isinstance(exc, DeadlineExceededError):
            return False
        return isinstance(exc, self.retryable)

    def delay_seconds(self, attempt: int, key: object = "") -> float:
        """Backoff before the retry that follows failed attempt *attempt*.

        Exponential in the attempt number, capped at :attr:`backoff_max`,
        with deterministic jitter derived from ``(seed, key, attempt)`` —
        *key* is typically ``(phase, task index)`` so concurrent retries
        don't thunder in lockstep, yet every schedule is reproducible.
        """
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier ** (attempt - 1),
        )
        if self.jitter <= 0 or base <= 0:
            return base
        digest = blake2b(
            f"{self.seed}|{key!r}|{attempt}".encode("utf-8"), digest_size=8
        ).digest()
        fraction = int.from_bytes(digest, "big") / 2**64
        return base * (1.0 + self.jitter * fraction)

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries (single attempt, no backoff)."""
        return cls(max_attempts=1, backoff_base=0.0, jitter=0.0)


def check_deadline(deadline_at: float | None, *, what: str = "run") -> None:
    """Raise :class:`DeadlineExceededError` once the deadline has passed.

    *deadline_at* is an absolute :func:`time.monotonic` instant (``None``
    disables the check).  Called between tasks and between retry rounds —
    a deadline bounds dispatch, it does not preempt a running task body.
    """
    if deadline_at is not None and time.monotonic() >= deadline_at:
        raise DeadlineExceededError(f"{what} exceeded its deadline")


def remaining_time(deadline_at: float | None) -> float | None:
    """Seconds until *deadline_at* (``None`` when no deadline is set).

    Clamped at zero so callers can pass it straight to waits.
    """
    if deadline_at is None:
        return None
    return max(0.0, deadline_at - time.monotonic())
