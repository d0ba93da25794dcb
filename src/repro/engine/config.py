"""Execution configuration: one object for all engine knobs.

The engine grew its tuning surface one keyword at a time (backend, worker
count, chunk size, partition count, and now the out-of-core memory
budget).  :class:`ExecutionConfig` bundles them so applications and the
CLI pass a single validated object instead of threading five keyword
arguments through every layer.  The applications take only ``config=``,
and run on ``ExecutionConfig()`` (the serial backend) when none is given.
The individual keyword arguments remain on
:class:`~repro.engine.engine.ExecutionEngine` and
:func:`~repro.engine.engine.execute_schema`, whose callers pass them.

The fault-plane knobs (``retry``, ``faults``, ``task_timeout``,
``deadline``, ``fallback``) ride in the same object.  They are runtime
policy, not plan decisions: the planner never serializes them, and the
service applies a submission's per-job retry/deadline on top of whatever
config the plan resolved.  All of them default to off; with every one
off the engine dispatches with no retry policy and no fault injector, so
task failures propagate unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.backends import Backend
from repro.exceptions import InvalidInstanceError
from repro.faults import FaultSpec, RetryPolicy, as_fault_spec


@dataclass(frozen=True)
class ExecutionConfig:
    """Validated engine tuning knobs.

    Attributes:
        backend: backend name (``serial``/``threads``/``processes``) or a
            pre-built :class:`~repro.engine.backends.Backend`.
        num_workers: worker-pool size (``None`` = machine default).
        map_chunk_size: records per map task (``None`` = adaptive).
        num_reduce_tasks: reduce partition count (``None`` = adaptive).
        memory_budget: maximum key-value pairs a map task buffers before
            spilling its groups to sorted on-disk runs; ``None`` keeps the
            fully in-memory shuffle.  The budget is counted in *pairs*
            (post-combiner), not bytes, so it is deterministic across
            backends and platforms.
        spill_dir: base directory for spill files (``None`` = the system
            temporary directory); each run gets its own subdirectory,
            removed when the run finishes.
        retry: per-task :class:`~repro.faults.RetryPolicy`; ``None``
            disables retrying (one attempt, failures propagate).  When
            any other fault-plane knob is set without an explicit policy
            the engine uses the default ``RetryPolicy()``.
        faults: deterministic fault injection for chaos testing — a
            :class:`~repro.faults.FaultSpec`, a spec string (parsed and
            validated here, e.g. ``"crash=0.2,seed=7"``), or ``None``
            for no injection.
        task_timeout: seconds a single task attempt may run before it is
            abandoned and retried (``None`` = no per-task timeout).
        deadline: seconds the whole run may take; dispatch stops with
            :class:`~repro.exceptions.DeadlineExceededError` once passed
            (``None`` = no deadline).
        fallback: opt-in graceful degradation — when a named backend
            cannot run (its pool cannot be built, or workers keep dying
            past the retry budget), retry the whole run down the chain
            ``processes → threads → serial``.
    """

    backend: str | Backend = "serial"
    num_workers: int | None = None
    map_chunk_size: int | None = None
    num_reduce_tasks: int | None = None
    memory_budget: int | None = None
    spill_dir: str | None = None
    retry: RetryPolicy | None = None
    faults: FaultSpec | str | None = None
    task_timeout: float | None = None
    deadline: float | None = None
    fallback: bool = False

    def __post_init__(self) -> None:
        for name in ("num_workers", "map_chunk_size", "num_reduce_tasks",
                     "memory_budget", "task_timeout", "deadline"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise InvalidInstanceError(
                    f"{name} must be positive, got {value}"
                )
        # Normalize a spec string into a validated FaultSpec right away so
        # a malformed --inject-faults fails at construction, not mid-run.
        object.__setattr__(self, "faults", as_fault_spec(self.faults))

    def engine_kwargs(self) -> dict[str, object]:
        """The config as keyword arguments for ``ExecutionEngine``.

        Built by hand rather than :func:`dataclasses.asdict` because the
        backend field may be a live :class:`Backend` holding a worker
        pool, which must be passed by reference, not deep-copied.
        """
        return {
            "backend": self.backend,
            "num_workers": self.num_workers,
            "map_chunk_size": self.map_chunk_size,
            "num_reduce_tasks": self.num_reduce_tasks,
            "memory_budget": self.memory_budget,
            "spill_dir": self.spill_dir,
            "retry": self.retry,
            "faults": self.faults,
            "task_timeout": self.task_timeout,
            "deadline": self.deadline,
            "fallback": self.fallback,
        }
