"""Fault plane: deterministic fault injection and retry policies.

The paper's mapping schemas make MapReduce fault tolerance cheap — every
reduce task's input set is known up front, so a lost task is recomputed
in isolation from its schema-assigned partitions instead of rerunning
the job.  This package supplies the two ingredients the engine and
service layers need to exploit that:

* :class:`FaultSpec` / :class:`FaultInjector` — seedable, deterministic
  injection of task crashes, worker kills, straggler delays, and
  transient exceptions, for chaos tests.  Decisions
  are pure functions of ``(seed, phase, task, attempt)``, so a failure
  scenario reproduces bit-for-bit on any backend.
* :class:`RetryPolicy` — bounded attempts with deterministic exponential
  backoff and a semantics-preserving retryable-exception classification
  (model/user errors propagate unchanged; only failures whose rerun can
  succeed are retried).

Wiring lives elsewhere: :class:`~repro.engine.config.ExecutionConfig`
carries both objects into the engine, which hands them to the backends'
one dispatch loop (:meth:`~repro.engine.backends.Backend.run_tasks`) as
policy — "fault plane off" is ``policy=None`` with no injector — and the
CLI exposes ``--inject-faults`` on ``repro run``.
"""

from __future__ import annotations

from repro.faults.injector import (
    DEFAULT_DELAY_SECONDS,
    FAULT_KINDS,
    KILL_EXIT_CODE,
    FaultInjector,
    FaultSpec,
    as_fault_spec,
)
from repro.faults.retry import (
    DEFAULT_RETRYABLE,
    RetryPolicy,
    check_deadline,
    remaining_time,
)

__all__ = [
    "DEFAULT_DELAY_SECONDS",
    "DEFAULT_RETRYABLE",
    "FAULT_KINDS",
    "KILL_EXIT_CODE",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "as_fault_spec",
    "check_deadline",
    "remaining_time",
]
