"""Execution configuration: one object for all engine settings.

A job is fixed by its plan — every reducer's inputs and the capacity
``q``; how
it runs is a separate concern, and :class:`ExecutionConfig` carries all of
it in one validated, frozen object: backend, worker count, partition
count, the out-of-core memory budget and the fault plane.
:class:`~repro.engine.engine.ExecutionEngine` reads its settings only from
its ``config``; the applications, the service and the cross-validation
oracle take ``config=`` and run on ``ExecutionConfig()`` (the serial
backend) when none is given.  :func:`~repro.engine.engine.execute_schema`
also accepts the data-plane settings as individual keywords, which it
bundles into a config.

The fault-plane settings (``retry``, ``faults``, ``task_timeout``,
``deadline``, ``fallback``) ride in the same object.  They are runtime
policy, not plan decisions: the planner never serializes them, so a
service job that wants them passes an explicit ``config=``.  All of them
default to off; with every one off the engine dispatches with no retry
policy and no fault injector, so task failures propagate unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.backends import Backend, backend_class
from repro.exceptions import InvalidInstanceError
from repro.faults import FaultSpec, RetryPolicy, as_fault_spec

#: Settings that count something, so must be integers.
_COUNTS = ("num_workers", "num_reduce_tasks", "memory_budget")


@dataclass(frozen=True)
class ExecutionConfig:
    """Validated engine settings for one run.

    Construction checks every value (an unknown backend name raises
    :class:`~repro.exceptions.UnknownMethodError`, a non-integer count or
    a non-positive value :class:`~repro.exceptions.InvalidInstanceError`),
    and the object is frozen, so the engine never re-checks them.

    Attributes:
        backend: backend name (``serial``/``processes``) or a
            pre-built :class:`~repro.engine.backends.Backend`.  A named
            backend's pool lives for exactly one run; a pre-built instance
            is caller-owned — its pool is opened persistently on first
            use, reused by every later run, and released only by
            :meth:`Backend.close` (or the instance's context manager).
        num_workers: worker-pool size (``None`` = the machine's cores).
        num_reduce_tasks: reduce partition count, fixed before the map
            phase so the parent can route each record to its partitions
            (``None`` = four per worker, one on the serial backend).
            Empty partitions are dropped, so this bounds the dispatched
            reduce tasks.
        memory_budget: maximum routed pairs (a record bound for one
            reduce partition) the parent buffers, across all partitions,
            before flushing them to sorted on-disk runs; ``None`` keeps
            the fully in-memory shuffle.  The budget is counted in
            *pairs*, not bytes, so it is deterministic across backends
            and platforms.  Outputs, metrics and strict-mode exceptions
            are identical either way; only the spill counters in the job
            metrics differ.
        spill_dir: base directory for spill files (``None`` = the system
            temporary directory); each run gets its own subdirectory,
            removed when the run finishes.
        retry: per-task :class:`~repro.faults.RetryPolicy`; ``None``
            disables retrying (one attempt, failures propagate).  When
            any other fault-plane setting is on without an explicit
            policy the engine uses the default ``RetryPolicy()``.  Retry
            is safe by construction: reduce tasks are pure functions
            of their schema-assigned partitions, so a replayed task
            recomputes identical output.
        faults: deterministic fault injection for chaos testing — a
            :class:`~repro.faults.FaultSpec`, a spec string (parsed and
            validated here, e.g. ``"crash=0.2,seed=7"``), or ``None``
            for no injection.  Decisions are a pure function of the seed
            and the task coordinates, so outputs under injection equal a
            fault-free run's on every backend.
        task_timeout: seconds a single task attempt may run before it is
            abandoned and retried (``None`` = no per-task timeout).
        deadline: seconds the whole run may take, counted from the
            engine's ``run()``; the run stops with
            :class:`~repro.exceptions.DeadlineExceededError` once passed
            (checked between the records the parent routes and between
            tasks, never preempting one; ``None`` = no deadline).
        fallback: opt-in graceful degradation — when a named backend
            cannot run (its pool cannot be built, or workers keep dying
            past the retry budget), retry the whole run down the chain
            ``processes → serial``.  Needs a re-iterable record
            source; the engine rejects a single-use iterator up front.
    """

    backend: str | Backend = "serial"
    num_workers: int | None = None
    num_reduce_tasks: int | None = None
    memory_budget: int | None = None
    spill_dir: str | None = None
    retry: RetryPolicy | None = None
    faults: FaultSpec | str | None = None
    task_timeout: float | None = None
    deadline: float | None = None
    fallback: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.backend, Backend):
            backend_class(self.backend)
        for name in (*_COUNTS, "task_timeout", "deadline"):
            value = getattr(self, name)
            if value is None:
                continue
            if name in _COUNTS and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise InvalidInstanceError(
                    f"{name} must be an integer, got {value!r}"
                )
            if value <= 0:
                raise InvalidInstanceError(
                    f"{name} must be positive, got {value}"
                )
        # Normalize a spec string into a validated FaultSpec right away so
        # a malformed --inject-faults fails at construction, not mid-run.
        object.__setattr__(self, "faults", as_fault_spec(self.faults))
